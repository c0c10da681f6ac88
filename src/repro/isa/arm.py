"""``arm`` — the AArch64-flavoured mini-ISA.

Faithful to Arm's structural properties the paper's observations lean on:

* fixed 32-bit words with a **dense** opcode space — the 8-bit major opcode
  table is ~93% populated (aliased encodings, like real A64's many variants),
  so a flipped instruction bit usually decodes to a *different valid*
  instruction instead of an illegal one → high I-cache AVF (Observation 2);
* condition flags (NZCV analog) written by ``cmp`` and consumed by ``b.cond``
  / ``csel`` / ``cset`` — the flags register renames through the integer PRF;
* a flexible shifted second operand on register-register ALU ops;
* ``madd``/``msub`` fused multiply-add (remainders lower to ``div + msub``);
* **store pair** (``stp``) and a weakly-ordered store drain (2/cycle) that
  lower store-queue occupancy (Observation 4).

Register 31 is XZR (reads-as-zero, writes ignored).
"""

from __future__ import annotations

from repro.isa.base import (
    ISA,
    AluFn,
    MemoryModel,
    MicroOp,
    MInstr,
    SysFn,
    UopKind,
    illegal_uop,
    register_isa,
)
from repro.kernel.compiler import Backend
from repro.kernel.ir import BinOp, Cond, Instr, Op, float_to_bits, to_signed, to_unsigned

MASK64 = (1 << 64) - 1

_CONDS = [Cond.EQ, Cond.NE, Cond.LT, Cond.GE, Cond.LTU, Cond.GEU]
_COND_IDX = {c: i for i, c in enumerate(_CONDS)}
_SHIFT_TYPES = ["lsl", "lsr", "asr", "lsl"]  # 2-bit field; 3 aliases to lsl

# ---------------------------------------------------------------------------
# Instruction specs.  The opcode byte indexes _OPCODE_TABLE (built below):
# entries 0x01..0xEF are populated by cycling through the spec list (dense,
# aliased encodings); 0x00 and 0xF0..0xFF stay undefined like A64's big
# UNALLOCATED holes.
# ---------------------------------------------------------------------------

_RRR_BINOPS = {
    "add": BinOp.ADD, "sub": BinOp.SUB, "mul": BinOp.MUL,
    "and": BinOp.AND, "orr": BinOp.OR, "eor": BinOp.XOR,
    "lsl": BinOp.SHL, "lsr": BinOp.SHRL, "asr": BinOp.SHRA,
    "udiv": BinOp.DIVU, "sdiv": BinOp.DIVS,
}
_RRI_BINOPS = {
    "addi": BinOp.ADD, "subi": BinOp.SUB, "andi": BinOp.AND,
    "orri": BinOp.OR, "eori": BinOp.XOR, "lsli": BinOp.SHL,
    "lsri": BinOp.SHRL, "asri": BinOp.SHRA,
}
_LOAD_SPECS = {
    "ldrb": (1, False), "ldrsb": (1, True), "ldrh": (2, False),
    "ldrsh": (2, True), "ldrw": (4, False), "ldrsw": (4, True), "ldr": (8, False),
}
_STORE_SPECS = {"strb": 1, "strh": 2, "strw": 4, "str": 8}
_FP_RRR = {"fadd": BinOp.FADD, "fsub": BinOp.FSUB, "fmul": BinOp.FMUL, "fdiv": BinOp.FDIV}
_SYS_SPECS = {
    "halt": SysFn.HALT, "checkpoint": SysFn.CHECKPOINT, "switch": SysFn.SWITCH_CPU,
    "wfi": SysFn.WFI, "nop": SysFn.NOP,
    "out1": SysFn.OUT, "out2": SysFn.OUT, "out4": SysFn.OUT, "out8": SysFn.OUT,
}
_OUT_WIDTH = {"out1": 1, "out2": 2, "out4": 4, "out8": 8}

_SPEC_LIST: list[str] = (
    list(_RRR_BINOPS) + list(_RRI_BINOPS) + list(_LOAD_SPECS) + list(_STORE_SPECS)
    + list(_FP_RRR)
    + [
        "cmp", "cmpi", "movw", "movk", "b", "bcond", "cbz", "cbnz",
        "csel", "cset", "madd", "msub", "stp", "fldr", "fstr",
        "fcmlt", "fcmeq", "scvtf", "fcvtzs", "fmov", "fmovd",
    ]
    + list(_SYS_SPECS)
)

_OPCODE_TABLE: dict[int, str] = {}
_CANONICAL: dict[str, int] = {}
for _op in range(0x01, 0xF0):
    _name = _SPEC_LIST[(_op - 1) % len(_SPEC_LIST)]
    _OPCODE_TABLE[_op] = _name
    _CANONICAL.setdefault(_name, _op)

XZR = 31


# ---------------------------------------------------------------------------
# field encode/decode
# ---------------------------------------------------------------------------


def _sext(value: int, bits: int) -> int:
    return to_unsigned(to_signed(value, bits))


def enc_rrr(op: str, rd: int, rn: int, rm: int, sty: int = 0, amt: int = 0) -> int:
    return (
        (_CANONICAL[op] << 24) | (rd << 19) | (rn << 14) | (rm << 9)
        | (sty << 7) | (amt & 0x7F)
    )


def enc_rri(op: str, rd: int, rn: int, imm14: int) -> int:
    return (_CANONICAL[op] << 24) | (rd << 19) | (rn << 14) | (imm14 & 0x3FFF)


def enc_movw(op: str, rd: int, hw: int, imm16: int) -> int:
    return (_CANONICAL[op] << 24) | (rd << 19) | (hw << 17) | (imm16 & 0xFFFF)


def enc_b(imm24: int) -> int:
    return (_CANONICAL["b"] << 24) | (imm24 & 0xFFFFFF)


def enc_bcond(cond: int, imm20: int) -> int:
    return (_CANONICAL["bcond"] << 24) | (cond << 20) | (imm20 & 0xFFFFF)


def enc_csel(op: str, rd: int, rn: int, rm: int, cond: int) -> int:
    return (_CANONICAL[op] << 24) | (rd << 19) | (rn << 14) | (rm << 9) | (cond << 5)


def enc_madd(op: str, rd: int, rn: int, rm: int, ra: int) -> int:
    return (_CANONICAL[op] << 24) | (rd << 19) | (rn << 14) | (rm << 9) | (ra << 4)


def enc_stp(rt: int, rt2: int, rn: int, imm9: int) -> int:
    return (_CANONICAL["stp"] << 24) | (rt << 19) | (rt2 << 14) | (rn << 9) | (imm9 & 0x1FF)


def enc_sys(op: str, rt: int = 0) -> int:
    return (_CANONICAL[op] << 24) | (rt << 19)


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


def decode(mem, pc: int, offset: int) -> list[MicroOp]:
    raw = bytes(mem[offset : offset + 4])
    if len(raw) < 4:
        return [illegal_uop(pc, raw, max(len(raw), 1))]
    word = int.from_bytes(raw, "little")
    op = (word >> 24) & 0xFF
    name = _OPCODE_TABLE.get(op)
    if name is None:
        return [illegal_uop(pc, raw, 4)]

    rd = (word >> 19) & 0x1F
    rn = (word >> 14) & 0x1F
    rm = (word >> 9) & 0x1F
    sty = (word >> 7) & 0x3
    amt = word & 0x7F
    imm14 = _sext(word & 0x3FFF, 14)
    flags = ISA_ARM.flags_reg

    def uop(**kw) -> list[MicroOp]:
        return [MicroOp(pc=pc, size=4, raw=raw, **kw)]

    if name in _RRR_BINOPS:
        fn = _RRR_BINOPS[name]
        kind = UopKind.ALU
        if fn is BinOp.MUL:
            kind = UopKind.MUL
        elif fn in (BinOp.DIVU, BinOp.DIVS):
            kind = UopKind.DIV
        shift = None if (sty == 0 and amt == 0) else (_SHIFT_TYPES[sty], amt & 63)
        return uop(kind=kind, fn=fn, dst=rd, srcs=(rn, rm), rm_shift=shift)
    if name in _RRI_BINOPS:
        return uop(kind=UopKind.ALU, fn=_RRI_BINOPS[name], dst=rd, srcs=(rn,), imm=to_signed(imm14, 64))
    if name in _LOAD_SPECS:
        width, signed = _LOAD_SPECS[name]
        return uop(kind=UopKind.LOAD, dst=rd, srcs=(rn,), imm=to_signed(imm14, 64),
                   width=width, signed=signed)
    if name in _STORE_SPECS:
        # store: rd field holds the data register
        return uop(kind=UopKind.STORE, srcs=(rn, rd), imm=to_signed(imm14, 64),
                   width=_STORE_SPECS[name])
    if name in _FP_RRR:
        fn = _FP_RRR[name]
        kind = UopKind.FDIV if fn is BinOp.FDIV else UopKind.FPU
        return uop(kind=kind, fn=fn, dst=rd, dst_fp=True, srcs=(rn, rm),
                   srcs_fp=(True, True))
    if name == "cmp":
        shift = None if (sty == 0 and amt == 0) else (_SHIFT_TYPES[sty], amt & 63)
        return uop(kind=UopKind.ALU, fn=AluFn.CMP, dst=flags, srcs=(rn, rm),
                   rm_shift=shift)
    if name == "cmpi":
        return uop(kind=UopKind.ALU, fn=AluFn.CMP, dst=flags, srcs=(rn,),
                   imm=to_signed(imm14, 64))
    if name == "movw":
        hw = (word >> 17) & 0x3
        return uop(kind=UopKind.ALU, fn=AluFn.MOVIMM, dst=rd,
                   imm=(word & 0xFFFF) << (16 * hw))
    if name == "movk":
        hw = (word >> 17) & 0x3
        return uop(kind=UopKind.ALU, fn=AluFn.MOVK, dst=rd, srcs=(rd,),
                   imm=(word & 0xFFFF) | ((16 * hw) << 16))
    if name == "b":
        rel = to_signed(word & 0xFFFFFF, 24) * 4
        return uop(kind=UopKind.JUMP, target=(pc + rel) & MASK64)
    if name == "bcond":
        cond = _CONDS[((word >> 20) & 0xF) % len(_CONDS)]
        rel = to_signed(word & 0xFFFFF, 20) * 4
        return uop(kind=UopKind.BRANCH, cond=cond, srcs=(flags,), uses_flags=True,
                   target=(pc + rel) & MASK64)
    if name in ("cbz", "cbnz"):
        rel = to_signed(word & 0x7FFFF, 19) * 4
        return uop(kind=UopKind.BRANCH, fn=name, srcs=(rd,),
                   target=(pc + rel) & MASK64)
    if name == "csel":
        cond = _CONDS[((word >> 5) & 0xF) % len(_CONDS)]
        return uop(kind=UopKind.ALU, fn=AluFn.CSEL, dst=rd, srcs=(rn, rm, flags),
                   cond=cond)
    if name == "cset":
        cond = _CONDS[((word >> 5) & 0xF) % len(_CONDS)]
        return uop(kind=UopKind.ALU, fn=AluFn.CSET, dst=rd, srcs=(flags,), cond=cond)
    if name in ("madd", "msub"):
        ra = (word >> 4) & 0x1F
        fn = AluFn.MADD if name == "madd" else AluFn.MSUB
        return uop(kind=UopKind.MUL, fn=fn, dst=rd, srcs=(rn, rm, ra))
    if name == "stp":
        imm9 = to_signed(word & 0x1FF, 9) * 8
        # srcs: base, data1, data2
        return uop(kind=UopKind.STORE, fn="pair", srcs=(rm, rd, rn), imm=imm9, width=8)
    if name == "fldr":
        return uop(kind=UopKind.LOAD, dst=rd, dst_fp=True, srcs=(rn,),
                   imm=to_signed(imm14, 64), width=8)
    if name == "fstr":
        return uop(kind=UopKind.STORE, srcs=(rn, rd), srcs_fp=(False, True),
                   imm=to_signed(imm14, 64), width=8)
    if name == "fcmlt":
        return uop(kind=UopKind.FPU, fn=BinOp.FLT, dst=rd, srcs=(rn, rm),
                   srcs_fp=(True, True))
    if name == "fcmeq":
        return uop(kind=UopKind.FPU, fn=BinOp.FEQ, dst=rd, srcs=(rn, rm),
                   srcs_fp=(True, True))
    if name == "scvtf":
        return uop(kind=UopKind.FPU, fn=AluFn.FCVT, dst=rd, dst_fp=True, srcs=(rn,))
    if name == "fcvtzs":
        return uop(kind=UopKind.FPU, fn=AluFn.FCVTI, dst=rd, srcs=(rn,), srcs_fp=(True,))
    if name == "fmov":
        return uop(kind=UopKind.FPU, fn=AluFn.FMV, dst=rd, dst_fp=True, srcs=(rn,))
    if name == "fmovd":
        return uop(kind=UopKind.FPU, fn=AluFn.MOV, dst=rd, dst_fp=True, srcs=(rn,),
                   srcs_fp=(True,))
    if name in _SYS_SPECS:
        fn = _SYS_SPECS[name]
        if fn is SysFn.OUT:
            return uop(kind=UopKind.SYS, fn=fn, srcs=(rd,), width=_OUT_WIDTH[name])
        return uop(kind=UopKind.SYS, fn=fn)
    return [illegal_uop(pc, raw, 4)]  # pragma: no cover - table is total


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------


def _word_mi(mnemonic: str, word: int) -> MInstr:
    return MInstr(mnemonic, encode_fn=lambda mi, a, l: word.to_bytes(4, "little"))


def _label_mi(mnemonic: str, make_word) -> MInstr:
    def encode(mi: MInstr, addr: int, labels: dict[str, int]) -> bytes:
        rel_words = (labels[mi.label] - addr) // 4
        return make_word(rel_words).to_bytes(4, "little")

    return MInstr(mnemonic, size_bytes=4, encode_fn=encode)


class ArmBackend(Backend):
    """Lowers mini-IR to arm machine code, with the stp pairing peephole."""

    spill_base = 28
    scratch_int = [24, 25, 26, 27, 30]
    allocatable_int = list(range(0, 24))            # x0..x23 (24 regs)
    scratch_fp = [29, 30, 31]
    allocatable_fp = list(range(0, 29))             # d0..d28 (29 regs)

    def _w(self, mnemonic: str, word: int) -> None:
        self.emit(_word_mi(mnemonic, word))

    def emit_nop(self) -> None:
        self._w("nop", enc_sys("nop"))

    def emit_const(self, reg: int, value: int) -> None:
        value = to_unsigned(value)
        self._w("movw", enc_movw("movw", reg, 0, value & 0xFFFF))
        for hw in (1, 2, 3):
            chunk = (value >> (16 * hw)) & 0xFFFF
            if chunk:
                self._w("movk", enc_movw("movk", reg, hw, chunk))

    def emit_prologue(self, spill_base_addr: int) -> None:
        self.emit_const(self.spill_base, spill_base_addr)

    def emit_load_spill(self, reg: int, slot: int, fp: bool) -> None:
        op = "fldr" if fp else "ldr"
        self._w(op, enc_rri(op, reg, self.spill_base, slot * 8))

    def emit_store_spill(self, reg: int, slot: int, fp: bool) -> None:
        op = "fstr" if fp else "str"
        self._w(op, enc_rri(op, reg, self.spill_base, slot * 8))

    # -------------------------------------------------------------- lowering

    def lower(self, instrs: list[Instr], index: int, regof, use_counts) -> int:
        ins = instrs[index]
        op = ins.op
        if op is Op.CONST:
            self.emit_const(regof(ins.dest), ins.imm)
        elif op is Op.FCONST:
            scratch = self.scratch_int[-1]
            self.emit_const(scratch, float_to_bits(ins.imm))
            self._w("fmov", enc_rrr("fmov", regof(ins.dest), scratch, 0))
        elif op is Op.MOV:
            if ins.dest.kind == "f":
                self._w("fmovd", enc_rrr("fmovd", regof(ins.dest), regof(ins.a), 0))
            else:
                self._w("orr", enc_rrr("orr", regof(ins.dest), XZR, regof(ins.a)))
        elif op is Op.LA:
            self.emit_const(regof(ins.dest), self.program.symbol_address(ins.symbol))
        elif op is Op.BIN:
            self._lower_bin(ins, regof)
        elif op is Op.SELECT:
            self._w("cmpi", enc_rri("cmpi", 0, regof(ins.c), 0))
            self._w("csel", enc_csel("csel", regof(ins.dest), regof(ins.a),
                                     regof(ins.b), _COND_IDX[Cond.NE]))
        elif op is Op.FCVT:
            self._w("scvtf", enc_rrr("scvtf", regof(ins.dest), regof(ins.a), 0))
        elif op is Op.FCVTI:
            self._w("fcvtzs", enc_rrr("fcvtzs", regof(ins.dest), regof(ins.a), 0))
        elif op is Op.LOAD:
            if ins.dest.kind == "f":
                self._w("fldr", enc_rri("fldr", regof(ins.dest), regof(ins.a), ins.offset))
            else:
                name = {
                    (1, False): "ldrb", (1, True): "ldrsb", (2, False): "ldrh",
                    (2, True): "ldrsh", (4, False): "ldrw", (4, True): "ldrsw",
                    (8, True): "ldr", (8, False): "ldr",
                }[(ins.width, ins.signed)]
                self._w(name, enc_rri(name, regof(ins.dest), regof(ins.a), ins.offset))
        elif op is Op.STORE:
            return self._lower_store(instrs, index, regof)
        elif op is Op.OUT:
            name = f"out{ins.width}"
            self._w(name, enc_sys(name, regof(ins.a)))
        elif op is Op.CHECKPOINT:
            self._w("checkpoint", enc_sys("checkpoint"))
        elif op is Op.SWITCH_CPU:
            self._w("switch", enc_sys("switch"))
        elif op is Op.WFI:
            self._w("wfi", enc_sys("wfi"))
        elif op is Op.NOP:
            self.emit_nop()
        elif op is Op.JUMP:
            mi = _label_mi("b", lambda rel: enc_b(rel))
            mi.label = ins.taken
            self.emit(mi)
        elif op is Op.BR:
            self._w("cmp", enc_rrr("cmp", 0, regof(ins.a), regof(ins.b)))
            cond = _COND_IDX[ins.cond]
            mi = _label_mi("bcond", lambda rel, c=cond: enc_bcond(c, rel))
            mi.label = ins.taken
            self.emit(mi)
            mj = _label_mi("b", lambda rel: enc_b(rel))
            mj.label = ins.fallthrough
            self.emit(mj)
        elif op is Op.HALT:
            self._w("halt", enc_sys("halt"))
        else:  # pragma: no cover
            raise NotImplementedError(op)
        return 1

    def _lower_store(self, instrs: list[Instr], index: int, regof) -> int:
        ins = instrs[index]
        # stp peephole: two adjacent 8-byte stores, same base, offsets +8 apart
        if self.isa.memory_model.merge_pairs and index + 1 < len(instrs):
            nxt = instrs[index + 1]
            if (
                ins.width == 8
                and nxt.op is Op.STORE
                and nxt.width == 8
                and ins.b.kind == "i"
                and nxt.b.kind == "i"
                and nxt.a == ins.a
                and nxt.offset == ins.offset + 8
                and -256 * 8 <= ins.offset < 256 * 8
                and ins.offset % 8 == 0
                and self._all_allocated(regof, ins.a, ins.b, nxt.b)
            ):
                self._w("stp", enc_stp(regof(ins.b), regof(nxt.b), regof(ins.a),
                                       ins.offset // 8))
                return 2
        if ins.b.kind == "f":
            self._w("fstr", enc_rri("fstr", regof(ins.b), regof(ins.a), ins.offset))
        else:
            name = {1: "strb", 2: "strh", 4: "strw", 8: "str"}[ins.width]
            self._w(name, enc_rri(name, regof(ins.b), regof(ins.a), ins.offset))
        return 1

    @staticmethod
    def _all_allocated(regof, *vregs) -> bool:
        return all(not regof.is_spilled(v) for v in vregs)

    def _lower_bin(self, ins: Instr, regof) -> None:
        rd, ra, rb = regof(ins.dest), regof(ins.a), regof(ins.b)
        fn = ins.binop
        name = {v: k for k, v in _RRR_BINOPS.items()}.get(fn)
        if name is not None:
            self._w(name, enc_rrr(name, rd, ra, rb))
            return
        if fn in _FP_RRR.values():
            name = {v: k for k, v in _FP_RRR.items()}[fn]
            self._w(name, enc_rrr(name, rd, ra, rb))
            return
        if fn in (BinOp.SLT, BinOp.SLTU, BinOp.SEQ):
            cond = {BinOp.SLT: Cond.LT, BinOp.SLTU: Cond.LTU, BinOp.SEQ: Cond.EQ}[fn]
            self._w("cmp", enc_rrr("cmp", 0, ra, rb))
            self._w("cset", enc_csel("cset", rd, 0, 0, _COND_IDX[cond]))
            return
        if fn in (BinOp.REMU, BinOp.REMS):
            div = "udiv" if fn is BinOp.REMU else "sdiv"
            t = self.scratch_int[-1]
            self._w(div, enc_rrr(div, t, ra, rb))
            self._w("msub", enc_madd("msub", rd, t, rb, ra))  # rd = ra - t*rb
            return
        if fn is BinOp.FLT:
            self._w("fcmlt", enc_rrr("fcmlt", rd, ra, rb))
            return
        if fn is BinOp.FEQ:
            self._w("fcmeq", enc_rrr("fcmeq", rd, ra, rb))
            return
        raise NotImplementedError(fn)  # pragma: no cover

    # -------------------------------------------------------------- relaxation

    def branch_in_range(self, mi: MInstr, offset: int) -> bool:
        words = offset // 4
        if mi.mnemonic == "bcond":
            return -(1 << 19) <= words < (1 << 19)
        if mi.mnemonic in ("cbz", "cbnz"):
            return -(1 << 18) <= words < (1 << 18)
        return -(1 << 23) <= words < (1 << 23)

    def expand_branch(self, mi: MInstr) -> None:  # pragma: no cover - huge code
        raise NotImplementedError("arm branch ranges exceed any generated program")


ISA_ARM = register_isa(
    ISA(
        name="arm",
        int_regs=32,          # x0..x30 + XZR(31)
        fp_regs=32,
        zero_reg=XZR,
        memory_model=MemoryModel(name="arm-weak", store_drain_rate=2, merge_pairs=True),
        decode_fn=decode,
        backend_cls=ArmBackend,
        description="fixed 32-bit words, ~93% dense opcode space, NZCV flags, stp",
    )
)
