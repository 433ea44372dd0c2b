//! The architectural executor.
//!
//! All four CPU models in `gem5sim` (Atomic, Timing, Minor, O3) share this
//! single definition of instruction semantics, so they are guaranteed to
//! compute identical architectural results — only *timing* differs, exactly
//! as in gem5 where the ISA definition is shared across CPU models.

use crate::inst::{AluOp, BranchCond, FCmpOp, FReg, FpuOp, Inst, MemSize, Reg};

/// Architectural register state of one hart.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchState {
    /// Program counter.
    pub pc: u64,
    regs: [u64; 32],
    fregs: [f64; 32],
}

impl ArchState {
    /// Fresh state with all registers zero and `pc = entry`.
    pub fn new(entry: u64) -> Self {
        ArchState {
            pc: entry,
            regs: [0; 32],
            fregs: [0.0; 32],
        }
    }

    /// Reads an integer register (the zero register always reads 0).
    pub fn read(&self, r: Reg) -> u64 {
        if r == Reg::ZERO {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an integer register (writes to the zero register are ignored).
    pub fn write(&mut self, r: Reg, v: u64) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    /// Reads an FP register.
    pub fn fread(&self, r: FReg) -> f64 {
        self.fregs[r.index()]
    }

    /// Writes an FP register.
    pub fn fwrite(&mut self, r: FReg, v: f64) {
        self.fregs[r.index()] = v;
    }
}

/// Functional memory interface used by [`step`].
///
/// Reads return the raw little-endian value zero-extended to 64 bits.
pub trait GuestMem {
    /// Reads `size` bytes at `addr`.
    fn read(&mut self, addr: u64, size: MemSize) -> u64;
    /// Writes the low `size` bytes of `val` at `addr`.
    fn write(&mut self, addr: u64, size: MemSize, val: u64);
}

/// Flat test memory: addresses index the vector directly.
impl GuestMem for Vec<u8> {
    fn read(&mut self, addr: u64, size: MemSize) -> u64 {
        let mut v = 0u64;
        for i in 0..size.bytes() {
            v |= (self[(addr + i) as usize] as u64) << (8 * i);
        }
        v
    }
    fn write(&mut self, addr: u64, size: MemSize, val: u64) {
        for i in 0..size.bytes() {
            self[(addr + i) as usize] = (val >> (8 * i)) as u8;
        }
    }
}

/// Where a load's result goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadDest {
    /// Integer register.
    Int(Reg),
    /// FP register (raw bits reinterpreted as `f64`).
    Fp(FReg),
}

/// What executing one instruction did (or, for deferred memory ops, what
/// remains to be done).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepAction {
    /// Sequential instruction; `pc` has been advanced.
    Next,
    /// Conditional branch; `pc` has been updated per `taken`.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
        /// The branch target (regardless of `taken`).
        target: u64,
    },
    /// Unconditional jump; `pc` has been updated.
    Jump {
        /// The jump target.
        target: u64,
    },
    /// A load. With [`exec_no_mem`] the access has *not* been performed;
    /// complete it with [`apply_load`]. With [`step`] it has.
    Load {
        /// Effective address.
        addr: u64,
        /// Access width.
        size: MemSize,
        /// Sign extension.
        signed: bool,
        /// Destination register.
        dest: LoadDest,
    },
    /// A store. With [`exec_no_mem`] the access has *not* been performed.
    Store {
        /// Effective address.
        addr: u64,
        /// Access width.
        size: MemSize,
        /// Raw data to write.
        data: u64,
    },
    /// An `ecall`; `pc` has been advanced. The caller services the call
    /// using the argument registers.
    Syscall,
    /// An `iret`; the caller (which owns the saved interrupt PC) must
    /// redirect `pc`.
    Iret,
    /// A `halt`; `pc` is left on the halt instruction.
    Halt,
}

fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                u64::MAX // RISC-V: division by zero yields all ones
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
        AluOp::Srl => a.wrapping_shr((b & 63) as u32),
        AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
    }
}

fn fpu(op: FpuOp, a: f64, b: f64) -> f64 {
    match op {
        FpuOp::Add => a + b,
        FpuOp::Sub => a - b,
        FpuOp::Mul => a * b,
        FpuOp::Div => a / b,
        FpuOp::Sqrt => a.sqrt(),
        FpuOp::Min => a.min(b),
        FpuOp::Max => a.max(b),
    }
}

fn branch_taken(cond: BranchCond, a: u64, b: u64) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i64) < (b as i64),
        BranchCond::Ge => (a as i64) >= (b as i64),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

/// Sign-/zero-extends a raw loaded value.
pub fn extend_loaded(raw: u64, size: MemSize, signed: bool) -> u64 {
    let bits = size.bytes() * 8;
    if bits == 64 {
        return raw;
    }
    let masked = raw & ((1u64 << bits) - 1);
    if signed {
        let shift = 64 - bits;
        (((masked << shift) as i64) >> shift) as u64
    } else {
        masked
    }
}

/// Completes a deferred load by writing the (extended) value to its
/// destination register.
pub fn apply_load(st: &mut ArchState, dest: LoadDest, raw: u64, size: MemSize, signed: bool) {
    match dest {
        LoadDest::Int(r) => st.write(r, extend_loaded(raw, size, signed)),
        LoadDest::Fp(f) => st.fwrite(f, f64::from_bits(raw)),
    }
}

/// Executes one instruction *without* performing memory accesses.
///
/// Register writes (including link registers) and `pc` updates are
/// performed; loads and stores are returned for the caller's memory system
/// to perform (completing loads via [`apply_load`]).
pub fn exec_no_mem(st: &mut ArchState, inst: Inst) -> StepAction {
    let next = st.pc + 4;
    match inst {
        Inst::Alu { op, rd, rs1, rs2 } => {
            let v = alu(op, st.read(rs1), st.read(rs2));
            st.write(rd, v);
            st.pc = next;
            StepAction::Next
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let v = alu(op, st.read(rs1), imm as u64);
            st.write(rd, v);
            st.pc = next;
            StepAction::Next
        }
        Inst::Li { rd, imm } => {
            st.write(rd, imm as u64);
            st.pc = next;
            StepAction::Next
        }
        Inst::Fpu { op, fd, fs1, fs2 } => {
            let v = fpu(op, st.fread(fs1), st.fread(fs2));
            st.fwrite(fd, v);
            st.pc = next;
            StepAction::Next
        }
        Inst::FCvtIF { fd, rs } => {
            st.fwrite(fd, st.read(rs) as i64 as f64);
            st.pc = next;
            StepAction::Next
        }
        Inst::FCvtFI { rd, fs } => {
            st.write(rd, st.fread(fs) as i64 as u64);
            st.pc = next;
            StepAction::Next
        }
        Inst::FCmp { op, rd, fs1, fs2 } => {
            let (a, b) = (st.fread(fs1), st.fread(fs2));
            let v = match op {
                FCmpOp::Eq => a == b,
                FCmpOp::Lt => a < b,
                FCmpOp::Le => a <= b,
            };
            st.write(rd, v as u64);
            st.pc = next;
            StepAction::Next
        }
        Inst::Load {
            size,
            signed,
            rd,
            base,
            off,
        } => {
            let addr = st.read(base).wrapping_add(off as u64);
            st.pc = next;
            StepAction::Load {
                addr,
                size,
                signed,
                dest: LoadDest::Int(rd),
            }
        }
        Inst::FLoad { fd, base, off } => {
            let addr = st.read(base).wrapping_add(off as u64);
            st.pc = next;
            StepAction::Load {
                addr,
                size: MemSize::D,
                signed: false,
                dest: LoadDest::Fp(fd),
            }
        }
        Inst::Store {
            size,
            rs,
            base,
            off,
        } => {
            let addr = st.read(base).wrapping_add(off as u64);
            let data = st.read(rs);
            st.pc = next;
            StepAction::Store { addr, size, data }
        }
        Inst::FStore { fs, base, off } => {
            let addr = st.read(base).wrapping_add(off as u64);
            let data = st.fread(fs).to_bits();
            st.pc = next;
            StepAction::Store {
                addr,
                size: MemSize::D,
                data,
            }
        }
        Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            let taken = branch_taken(cond, st.read(rs1), st.read(rs2));
            st.pc = if taken { target } else { next };
            StepAction::Branch { taken, target }
        }
        Inst::Jal { rd, target } => {
            st.write(rd, next);
            st.pc = target;
            StepAction::Jump { target }
        }
        Inst::Jalr { rd, base, off } => {
            // Read base *before* writing the link register (rd may equal
            // base).
            let target = st.read(base).wrapping_add(off as u64) & !1;
            st.write(rd, next);
            st.pc = target;
            StepAction::Jump { target }
        }
        Inst::Ecall => {
            st.pc = next;
            StepAction::Syscall
        }
        Inst::Iret => StepAction::Iret,
        Inst::Nop => {
            st.pc = next;
            StepAction::Next
        }
        Inst::Halt => StepAction::Halt,
    }
}

/// Executes one instruction, performing memory accesses against `mem`.
///
/// This is the atomic-mode fast path; it returns the same [`StepAction`]
/// as [`exec_no_mem`] (with loads already applied) so callers can still
/// observe addresses and branch outcomes for statistics.
pub fn step<M: GuestMem + ?Sized>(st: &mut ArchState, inst: Inst, mem: &mut M) -> StepAction {
    let action = exec_no_mem(st, inst);
    match action {
        StepAction::Load {
            addr,
            size,
            signed,
            dest,
        } => {
            let raw = mem.read(addr, size);
            apply_load(st, dest, raw, size, signed);
        }
        StepAction::Store { addr, size, data } => {
            mem.write(addr, size, data);
        }
        _ => {}
    }
    action
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::program::Program;

    fn run(prog: &Program, mem: &mut Vec<u8>, max_steps: u64) -> ArchState {
        let mut st = ArchState::new(prog.entry_pc());
        st.write(Reg::SP, mem.len() as u64);
        for _ in 0..max_steps {
            let inst = prog.fetch(st.pc).expect("pc out of text");
            if step(&mut st, inst, mem) == StepAction::Halt {
                return st;
            }
        }
        panic!("program did not halt in {max_steps} steps");
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut st = ArchState::new(0);
        st.write(Reg::ZERO, 99);
        assert_eq!(st.read(Reg::ZERO), 0);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(alu(AluOp::Add, u64::MAX, 1), 0);
        assert_eq!(alu(AluOp::Sub, 3, 5), (-2i64) as u64);
        assert_eq!(alu(AluOp::Div, 7, 2), 3);
        assert_eq!(alu(AluOp::Div, (-7i64) as u64, 2), (-3i64) as u64);
        assert_eq!(alu(AluOp::Div, 1, 0), u64::MAX);
        assert_eq!(alu(AluOp::Rem, 7, 0), 7);
        assert_eq!(alu(AluOp::Sra, (-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(alu(AluOp::Srl, (-8i64) as u64, 1), ((-8i64) as u64) >> 1);
        assert_eq!(alu(AluOp::Slt, (-1i64) as u64, 0), 1);
        assert_eq!(alu(AluOp::Sltu, (-1i64) as u64, 0), 0);
    }

    #[test]
    fn extend_loaded_sign_and_zero() {
        assert_eq!(extend_loaded(0xFF, MemSize::B, true), u64::MAX);
        assert_eq!(extend_loaded(0xFF, MemSize::B, false), 0xFF);
        assert_eq!(
            extend_loaded(0x8000, MemSize::H, true),
            0xFFFF_FFFF_FFFF_8000
        );
        assert_eq!(extend_loaded(0xDEAD_BEEF, MemSize::W, false), 0xDEAD_BEEF);
        assert_eq!(extend_loaded(0x1234, MemSize::D, true), 0x1234);
    }

    #[test]
    fn loop_sums_correctly() {
        let mut b = ProgramBuilder::new();
        // sum = 1 + 2 + ... + 10
        b.li(Reg::A0, 0)
            .li(Reg::T0, 1)
            .li(Reg::T1, 11)
            .label("loop")
            .add(Reg::A0, Reg::A0, Reg::T0)
            .addi(Reg::T0, Reg::T0, 1)
            .bne(Reg::T0, Reg::T1, "loop")
            .halt();
        let p = b.assemble().unwrap();
        let mut mem = vec![0u8; 64];
        let st = run(&p, &mut mem, 1000);
        assert_eq!(st.read(Reg::A0), 55);
    }

    #[test]
    fn memory_roundtrip_all_sizes() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 16)
            .li(Reg::A0, -2) // 0xFFFF...FE
            .sb(Reg::A0, Reg::T0, 0)
            .lbu(Reg::A1, Reg::T0, 0)
            .load(MemSize::B, true, Reg::A2, Reg::T0, 0)
            .sd(Reg::A0, Reg::T0, 8)
            .ld(Reg::A3, Reg::T0, 8)
            .halt();
        let p = b.assemble().unwrap();
        let mut mem = vec![0u8; 64];
        let st = run(&p, &mut mem, 100);
        assert_eq!(st.read(Reg::A1), 0xFE);
        assert_eq!(st.read(Reg::A2), (-2i64) as u64);
        assert_eq!(st.read(Reg::A3), (-2i64) as u64);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::A0, 5)
            .call("double")
            .halt()
            .label("double")
            .add(Reg::A0, Reg::A0, Reg::A0)
            .ret();
        let p = b.assemble().unwrap();
        let mut mem = vec![0u8; 64];
        let st = run(&p, &mut mem, 100);
        assert_eq!(st.read(Reg::A0), 10);
    }

    #[test]
    fn jalr_with_rd_equal_base() {
        // jalr t0, 0(t0) must use the *old* t0 as the target.
        let mut b = ProgramBuilder::new();
        b.li_label(Reg::T0, "target")
            .jalr(Reg::T0, Reg::T0, 0)
            .halt()
            .label("target")
            .li(Reg::A0, 7)
            .halt();
        let p = b.assemble().unwrap();
        let mut mem = vec![0u8; 16];
        let st = run(&p, &mut mem, 100);
        assert_eq!(st.read(Reg::A0), 7);
        // link register holds the return address (pc of halt after jalr)
        assert_eq!(st.read(Reg::T0), p.symbol("target").unwrap() - 4);
    }

    #[test]
    fn fp_pipeline() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 9)
            .fcvt_if(FReg(0), Reg::T0)
            .fsqrt(FReg(1), FReg(0))
            .fcvt_fi(Reg::A0, FReg(1))
            .li(Reg::T1, 16)
            .fsd(FReg(1), Reg::T1, 0)
            .fld(FReg(2), Reg::T1, 0)
            .flt(Reg::A1, FReg(2), FReg(0)) // 3.0 < 9.0 -> 1
            .halt();
        let p = b.assemble().unwrap();
        let mut mem = vec![0u8; 64];
        let st = run(&p, &mut mem, 100);
        assert_eq!(st.read(Reg::A0), 3);
        assert_eq!(st.read(Reg::A1), 1);
        assert_eq!(st.fread(FReg(2)), 3.0);
    }

    #[test]
    fn branch_action_reports_outcome_and_target() {
        let mut b = ProgramBuilder::new();
        b.label("top").beq(Reg::ZERO, Reg::ZERO, "top");
        let p = b.assemble().unwrap();
        let mut st = ArchState::new(p.entry_pc());
        let inst = p.fetch(st.pc).unwrap();
        let a = exec_no_mem(&mut st, inst);
        assert_eq!(
            a,
            StepAction::Branch {
                taken: true,
                target: p.entry_pc()
            }
        );
        assert_eq!(st.pc, p.entry_pc());
    }

    #[test]
    fn syscall_advances_pc() {
        let mut st = ArchState::new(0x1000);
        let a = exec_no_mem(&mut st, Inst::Ecall);
        assert_eq!(a, StepAction::Syscall);
        assert_eq!(st.pc, 0x1004);
    }

    #[test]
    fn deferred_load_matches_atomic_step() {
        let mut mem: Vec<u8> = vec![0; 64];
        mem[8] = 0x2A;
        let inst = Inst::Load {
            size: MemSize::D,
            signed: true,
            rd: Reg::A0,
            base: Reg::ZERO,
            off: 8,
        };
        let mut st_a = ArchState::new(0);
        step(&mut st_a, inst, &mut mem);

        let mut st_b = ArchState::new(0);
        match exec_no_mem(&mut st_b, inst) {
            StepAction::Load {
                addr,
                size,
                signed,
                dest,
            } => {
                let raw = mem.read(addr, size);
                apply_load(&mut st_b, dest, raw, size, signed);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(st_a, st_b);
        assert_eq!(st_a.read(Reg::A0), 0x2A);
    }
}
