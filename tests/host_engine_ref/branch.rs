//! Host branch prediction: a gshare conditional predictor and a BTB for
//! taken/indirect targets. BTB misses on taken transfers are the
//! "unknown branches" of the paper's Fig. 4 — the front end cannot even
//! tell where to fetch next until the branch unit decodes the target.

/// Host branch predictor state.
#[derive(Debug, Clone)]
pub struct HostBranchPredictor {
    table: Vec<u8>, // 2-bit counters
    mask: u64,
    history: u64,
    btb_tags: Vec<u64>,
    btb_targets: Vec<u64>,
    btb_mask: u64,
    /// Conditional branches predicted.
    pub cond_lookups: u64,
    /// Conditional mispredictions.
    pub mispredicts: u64,
    /// Taken transfers whose target was absent/wrong in the BTB.
    pub unknown_branches: u64,
    /// Indirect transfers seen.
    pub indirect_lookups: u64,
}

impl HostBranchPredictor {
    /// Builds a predictor with `2^bp_bits` counters and `btb_entries`
    /// BTB slots.
    ///
    /// # Panics
    ///
    /// Panics if `btb_entries` is not a power of two.
    pub fn new(bp_bits: u32, btb_entries: u64) -> Self {
        assert!(btb_entries.is_power_of_two());
        HostBranchPredictor {
            table: vec![2; 1 << bp_bits],
            mask: (1u64 << bp_bits) - 1,
            history: 0,
            btb_tags: vec![u64::MAX; btb_entries as usize],
            btb_targets: vec![0; btb_entries as usize],
            btb_mask: btb_entries - 1,
            cond_lookups: 0,
            mispredicts: 0,
            unknown_branches: 0,
            indirect_lookups: 0,
        }
    }

    /// Predicts + trains a conditional branch at `site` with resolved
    /// `outcome`; returns `true` on misprediction. `loop_covered` marks
    /// branches whose periodic pattern a long-history loop predictor
    /// captures — they never mispredict. On taken branches the BTB is
    /// also consulted/updated; an absent target counts as an
    /// unknown-branch resteer (returned separately).
    #[inline]
    pub fn cond_branch(&mut self, site: u64, outcome: bool, loop_covered: bool) -> (bool, bool) {
        self.cond_lookups += 1;
        let idx = ((hosttrace::mix64(site) ^ self.history) & self.mask) as usize;
        let ctr = &mut self.table[idx];
        let predicted = *ctr >= 2;
        if outcome {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        self.history = ((self.history << 1) | outcome as u64) & self.mask;
        let mispredicted = predicted != outcome && !loop_covered;
        if mispredicted {
            self.mispredicts += 1;
        }
        let mut unknown = false;
        if outcome && !mispredicted {
            // Correct-direction taken branch still needs a BTB target.
            unknown = !self.btb_check(site, site ^ 0x5555);
            if unknown {
                self.unknown_branches += 1;
            }
        }
        (mispredicted, unknown)
    }

    /// Processes an indirect transfer at `site` to `target`; returns
    /// `true` if the front end had no (or the wrong) target — an
    /// unknown-branch resteer.
    #[inline]
    pub fn indirect_branch(&mut self, site: u64, target: u64) -> bool {
        self.indirect_lookups += 1;
        let unknown = !self.btb_check(site, target);
        if unknown {
            self.unknown_branches += 1;
        }
        unknown
    }

    /// Checks and updates the BTB; returns `true` if `site → target`
    /// was already present.
    #[inline]
    fn btb_check(&mut self, site: u64, target: u64) -> bool {
        let idx = (hosttrace::mix64(site) & self.btb_mask) as usize;
        let hit = self.btb_tags[idx] == site && self.btb_targets[idx] == target;
        self.btb_tags[idx] = site;
        self.btb_targets[idx] = target;
        hit
    }

    /// Conditional misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.cond_lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.cond_lookups as f64
        }
    }
}
