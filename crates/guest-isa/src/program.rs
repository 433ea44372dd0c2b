//! Assembled guest programs.

use crate::inst::Inst;
use std::collections::BTreeMap;

/// Base virtual address of the text segment.
pub const TEXT_BASE: u64 = 0x0040_0000;

/// Byte size of one (fixed-width) instruction.
pub const INST_BYTES: u64 = 4;

/// An assembled program: a fixed-width text segment plus symbol table.
///
/// PCs are byte addresses; instruction `i` lives at
/// `TEXT_BASE + 4 * i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    text: Vec<Inst>,
    symbols: BTreeMap<String, u64>,
    entry: u64,
    /// Bumped on every [`patch`](Self::patch); lets decoded-code caches
    /// (the block tier's [`crate::block::BlockCache`]) detect that their
    /// copies of the text are stale.
    version: u64,
}

impl Program {
    pub(crate) fn new(text: Vec<Inst>, symbols: BTreeMap<String, u64>, entry: u64) -> Self {
        Program {
            text,
            symbols,
            entry,
            version: 0,
        }
    }

    /// Entry-point PC.
    pub fn entry_pc(&self) -> u64 {
        self.entry
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Last valid PC + 4 (end of text).
    pub fn text_end(&self) -> u64 {
        TEXT_BASE + self.text.len() as u64 * INST_BYTES
    }

    /// Fetches the instruction at `pc`, or `None` if `pc` is outside the
    /// text segment or misaligned.
    pub fn fetch(&self, pc: u64) -> Option<Inst> {
        if pc < TEXT_BASE || !(pc - TEXT_BASE).is_multiple_of(INST_BYTES) {
            return None;
        }
        self.text
            .get(((pc - TEXT_BASE) / INST_BYTES) as usize)
            .copied()
    }

    /// Looks up a label's PC.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Text-segment version, bumped by every [`patch`](Self::patch).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Overwrites the instruction at `pc` (self-modifying code).
    ///
    /// Returns `false` (and changes nothing) if `pc` is outside the text
    /// segment or misaligned. Each successful patch bumps
    /// [`version`](Self::version) so decoded-code caches can invalidate.
    pub fn patch(&mut self, pc: u64, inst: Inst) -> bool {
        if pc < TEXT_BASE || !(pc - TEXT_BASE).is_multiple_of(INST_BYTES) {
            return false;
        }
        match self.text.get_mut(((pc - TEXT_BASE) / INST_BYTES) as usize) {
            Some(slot) => {
                *slot = inst;
                self.version += 1;
                true
            }
            None => false,
        }
    }

    /// Iterates over `(pc, inst)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Inst)> + '_ {
        self.text
            .iter()
            .enumerate()
            .map(|(i, &inst)| (TEXT_BASE + i as u64 * INST_BYTES, inst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Reg};

    fn two_inst_program() -> Program {
        let mut syms = BTreeMap::new();
        syms.insert("start".to_string(), TEXT_BASE);
        Program::new(
            vec![
                Inst::Li {
                    rd: Reg::A0,
                    imm: 1,
                },
                Inst::Halt,
            ],
            syms,
            TEXT_BASE,
        )
    }

    #[test]
    fn fetch_in_bounds() {
        let p = two_inst_program();
        assert_eq!(
            p.fetch(TEXT_BASE),
            Some(Inst::Li {
                rd: Reg::A0,
                imm: 1
            })
        );
        assert_eq!(p.fetch(TEXT_BASE + 4), Some(Inst::Halt));
        assert_eq!(p.fetch(TEXT_BASE + 8), None);
        assert_eq!(p.fetch(TEXT_BASE - 4), None);
        assert_eq!(p.fetch(TEXT_BASE + 2), None, "misaligned fetch");
    }

    #[test]
    fn symbols_and_extent() {
        let p = two_inst_program();
        assert_eq!(p.symbol("start"), Some(TEXT_BASE));
        assert_eq!(p.symbol("missing"), None);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.text_end(), TEXT_BASE + 8);
    }

    #[test]
    fn patch_rewrites_text_and_bumps_version() {
        let mut p = two_inst_program();
        assert_eq!(p.version(), 0);
        assert!(p.patch(TEXT_BASE, Inst::Nop));
        assert_eq!(p.fetch(TEXT_BASE), Some(Inst::Nop));
        assert_eq!(p.version(), 1);
        // Out-of-range and misaligned patches are rejected untouched.
        assert!(!p.patch(TEXT_BASE + 8, Inst::Nop));
        assert!(!p.patch(TEXT_BASE + 2, Inst::Nop));
        assert!(!p.patch(TEXT_BASE - 4, Inst::Nop));
        assert_eq!(p.version(), 1);
    }

    #[test]
    fn iter_yields_sequential_pcs() {
        let p = two_inst_program();
        let pcs: Vec<u64> = p.iter().map(|(pc, _)| pc).collect();
        assert_eq!(pcs, vec![TEXT_BASE, TEXT_BASE + 4]);
    }
}
