//! Basic-block decoding and the decoded-block cache.
//!
//! The block execution tier pre-decodes guest text into straight-line
//! basic blocks: a run of instructions starting at an entry PC and cut at
//! the first instruction that can redirect control flow (branch, jump,
//! syscall, halt — [`Inst::is_control`]), at the end of the text segment,
//! or at [`MAX_BLOCK_INSTS`]. Blocks are cached by entry PC (the same
//! keying QEMU uses for translation blocks), so hot loop bodies decode
//! once and then execute from the cache.
//!
//! Correctness is the cache's problem, not the executor's:
//!
//! * **Self-modification** — every [`Program::patch`] bumps the program's
//!   text version; [`BlockCache::lookup`] discards the whole cache when
//!   its recorded version is stale, and [`BlockCache::invalidate_range`]
//!   surgically drops blocks overlapping a written address range.
//! * **Capacity** — eviction is deterministic FIFO (insertion order), so
//!   a capacity-limited cache recompiles blocks but can never change
//!   execution results or ordering.

use crate::inst::Inst;
use crate::program::{Program, INST_BYTES};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Longest block the decoder will form, in instructions. Bounds the work
/// a single cache miss performs; real blocks almost always cut at a
/// control instruction well before this.
pub const MAX_BLOCK_INSTS: usize = 64;

/// A decoded straight-line run of instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// PC of the first instruction.
    pub entry: u64,
    /// The instructions, in fetch order. Only the last one may be a
    /// control instruction.
    pub insts: Vec<Inst>,
}

impl BasicBlock {
    /// PC one past the last instruction.
    pub fn end_pc(&self) -> u64 {
        self.entry + self.insts.len() as u64 * INST_BYTES
    }

    /// The instruction at `pc`, if `pc` falls inside this block.
    pub fn inst_at(&self, pc: u64) -> Option<Inst> {
        if pc < self.entry || pc >= self.end_pc() || !(pc - self.entry).is_multiple_of(INST_BYTES) {
            return None;
        }
        Some(self.insts[((pc - self.entry) / INST_BYTES) as usize])
    }
}

/// Decodes the basic block entered at `entry`, or `None` if `entry` is
/// not a valid text address. Cuts after the first control instruction,
/// at the end of text, or after `max_insts` instructions.
pub fn decode_block(prog: &Program, entry: u64, max_insts: usize) -> Option<BasicBlock> {
    let mut insts = Vec::new();
    let mut pc = entry;
    while insts.len() < max_insts {
        let Some(inst) = prog.fetch(pc) else { break };
        insts.push(inst);
        if inst.is_control() {
            break;
        }
        pc += INST_BYTES;
    }
    if insts.is_empty() {
        return None;
    }
    Some(BasicBlock { entry, insts })
}

/// Counters for one [`BlockCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Blocks decoded ("compiled") on a miss.
    pub compiled: u64,
    /// Blocks dropped to stay within capacity.
    pub evicted: u64,
    /// Blocks dropped by self-modification (version change or an
    /// overlapping write).
    pub invalidated: u64,
}

/// A capacity-bounded cache of decoded blocks, keyed by entry PC.
#[derive(Debug)]
pub struct BlockCache {
    blocks: HashMap<u64, Rc<BasicBlock>>,
    /// Insertion order, for deterministic FIFO eviction.
    order: VecDeque<u64>,
    capacity: usize,
    /// Text version the cached blocks were decoded from.
    version: u64,
    /// Running counters.
    pub stats: BlockCacheStats,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "block cache needs room for at least 1 block");
        BlockCache {
            blocks: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            version: 0,
            stats: BlockCacheStats::default(),
        }
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Returns the block entered at `entry`, decoding and caching it on a
    /// miss. `None` if `entry` is not a valid text address.
    ///
    /// A lookup against a program whose [`Program::version`] changed
    /// since the last lookup first discards every cached block — the
    /// decoded copies may no longer match the text.
    pub fn lookup(&mut self, prog: &Program, entry: u64) -> Option<Rc<BasicBlock>> {
        if self.version != prog.version() {
            self.stats.invalidated += self.blocks.len() as u64;
            self.blocks.clear();
            self.order.clear();
            self.version = prog.version();
        }
        if let Some(b) = self.blocks.get(&entry) {
            self.stats.hits += 1;
            return Some(Rc::clone(b));
        }
        let block = Rc::new(decode_block(prog, entry, MAX_BLOCK_INSTS)?);
        self.stats.compiled += 1;
        while self.blocks.len() >= self.capacity {
            // FIFO: evict the oldest surviving insertion.
            match self.order.pop_front() {
                Some(old) => {
                    if self.blocks.remove(&old).is_some() {
                        self.stats.evicted += 1;
                    }
                }
                None => break,
            }
        }
        self.blocks.insert(entry, Rc::clone(&block));
        self.order.push_back(entry);
        Some(block)
    }

    /// Drops every block overlapping the byte range `[lo, hi)` — called
    /// when guest code writes into the text segment.
    pub fn invalidate_range(&mut self, lo: u64, hi: u64) {
        let stale: Vec<u64> = self
            .blocks
            .iter()
            .filter(|(_, b)| b.entry < hi && b.end_pc() > lo)
            .map(|(&e, _)| e)
            .collect();
        for e in stale {
            self.blocks.remove(&e);
            self.stats.invalidated += 1;
        }
        self.order.retain(|e| self.blocks.contains_key(e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::inst::Reg;
    use crate::program::TEXT_BASE;

    /// li; addi; bne (loop); li; jal; ecall; halt — covers every cut kind.
    fn cut_rich_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 3) // 0x00
            .label("loop")
            .addi(Reg::T0, Reg::T0, -1) // 0x04
            .bne(Reg::T0, Reg::ZERO, "loop") // 0x08  <- branch cut
            .li(Reg::A0, 1) // 0x0c
            .call("fn") // 0x10  <- call cut
            .ecall() // 0x14  <- syscall cut
            .halt() // 0x18  <- halt cut
            .label("fn")
            .ret(); // 0x1c
        b.assemble().unwrap()
    }

    #[test]
    fn blocks_cut_at_branch_call_syscall_and_halt() {
        let p = cut_rich_program();
        // Entry block: li, addi, bne — ends at the conditional branch.
        let b = decode_block(&p, TEXT_BASE, MAX_BLOCK_INSTS).unwrap();
        assert_eq!(b.insts.len(), 3);
        assert!(b.insts.last().unwrap().is_control());
        assert_eq!(b.end_pc(), TEXT_BASE + 12);
        // Fall-through block: li, jal — ends at the call.
        let b = decode_block(&p, TEXT_BASE + 12, MAX_BLOCK_INSTS).unwrap();
        assert_eq!(b.insts.len(), 2);
        // Syscall alone.
        let b = decode_block(&p, TEXT_BASE + 20, MAX_BLOCK_INSTS).unwrap();
        assert_eq!(b.insts.len(), 1);
        assert_eq!(b.insts[0], Inst::Ecall);
        // Halt alone.
        let b = decode_block(&p, TEXT_BASE + 24, MAX_BLOCK_INSTS).unwrap();
        assert_eq!(b.insts, vec![Inst::Halt]);
    }

    #[test]
    fn blocks_cut_at_text_end_and_max_len() {
        let mut b = ProgramBuilder::new();
        for _ in 0..(MAX_BLOCK_INSTS + 10) {
            b.nop();
        }
        let p = b.assemble().unwrap();
        let blk = decode_block(&p, TEXT_BASE, MAX_BLOCK_INSTS).unwrap();
        assert_eq!(blk.insts.len(), MAX_BLOCK_INSTS, "length-capped");
        let tail_entry = TEXT_BASE + (p.len() as u64 - 2) * INST_BYTES;
        let tail = decode_block(&p, tail_entry, MAX_BLOCK_INSTS).unwrap();
        assert_eq!(tail.insts.len(), 2, "cut by end of text");
        assert_eq!(decode_block(&p, p.text_end(), MAX_BLOCK_INSTS), None);
        assert_eq!(decode_block(&p, TEXT_BASE + 1, MAX_BLOCK_INSTS), None);
    }

    #[test]
    fn inst_at_indexes_into_the_block() {
        let p = cut_rich_program();
        let b = decode_block(&p, TEXT_BASE, MAX_BLOCK_INSTS).unwrap();
        assert_eq!(b.inst_at(TEXT_BASE), Some(b.insts[0]));
        assert_eq!(b.inst_at(TEXT_BASE + 8), Some(b.insts[2]));
        assert_eq!(b.inst_at(TEXT_BASE + 12), None, "past the cut");
        assert_eq!(b.inst_at(TEXT_BASE + 2), None, "misaligned");
    }

    #[test]
    fn cache_hits_after_compile() {
        let p = cut_rich_program();
        let mut c = BlockCache::new(16);
        let a = c.lookup(&p, TEXT_BASE).unwrap();
        let b = c.lookup(&p, TEXT_BASE).unwrap();
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(c.stats.compiled, 1);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.lookup(&p, 0), None, "bogus entry is not cached");
    }

    #[test]
    fn version_change_flushes_the_cache() {
        let mut p = cut_rich_program();
        let mut c = BlockCache::new(16);
        c.lookup(&p, TEXT_BASE).unwrap();
        assert!(p.patch(TEXT_BASE, Inst::Nop));
        let b = c.lookup(&p, TEXT_BASE).unwrap();
        assert_eq!(b.insts[0], Inst::Nop, "recompiled from patched text");
        assert_eq!(c.stats.invalidated, 1);
        assert_eq!(c.stats.compiled, 2);
    }

    #[test]
    fn range_invalidation_drops_only_overlapping_blocks() {
        let p = cut_rich_program();
        let mut c = BlockCache::new(16);
        c.lookup(&p, TEXT_BASE).unwrap(); // [0x00, 0x0c)
        c.lookup(&p, TEXT_BASE + 12).unwrap(); // [0x0c, 0x14)
        assert_eq!(c.len(), 2);
        // A one-byte write inside the first block.
        c.invalidate_range(TEXT_BASE + 4, TEXT_BASE + 5);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats.invalidated, 1);
        // The survivor still hits.
        c.lookup(&p, TEXT_BASE + 12).unwrap();
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn capacity_eviction_is_fifo_and_lossless() {
        let mut b = ProgramBuilder::new();
        for _ in 0..8 {
            b.nop().halt(); // 8 two-instruction blocks
        }
        let p = b.assemble().unwrap();
        let mut c = BlockCache::new(2);
        for i in 0..4 {
            c.lookup(&p, TEXT_BASE + i * 8).unwrap();
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats.evicted, 2);
        // Evicted entries recompile to identical blocks.
        let again = c.lookup(&p, TEXT_BASE).unwrap();
        assert_eq!(
            *again,
            decode_block(&p, TEXT_BASE, MAX_BLOCK_INSTS).unwrap()
        );
        assert_eq!(c.stats.compiled, 5);
    }
}
