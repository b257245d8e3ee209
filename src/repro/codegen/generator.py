"""Per-(scheme, MachineConfig) cycle-kernel source generator.

:func:`generate_kernel_source` emits one flattened Python module per
configuration: a single ``run_kernel(proc, max_insts)`` function that
runs :meth:`repro.pipeline.processor.Processor._run_naive`'s stage order
with

* machine constants (widths, structure sizes, cycle budgets, the PRT
  version-counter saturation point) inlined as literals,
* the functional-unit dispatch table resolved into a per-kind unrolled
  ``if/elif`` chain with literal counts and latencies,
* the renamer hot path — ``can_rename`` (including the sharing
  register-pressure check), ``rename``, free-list pop, PRT update,
  commit-time release bookkeeping — fused directly into the
  rename/dispatch, writeback and commit stages for the concrete scheme,
* ``MemoryHierarchy.data_access`` (load issue, store commit) fused for
  its TLB-hit / L1-D-hit / stride-training case, and
  ``Processor._verify_operands`` fused as direct register-file reads,
* config-dead code (interrupt delivery, register-file port limits,
  operand verification, wrong-path squash) dropped entirely when the
  config disables it,
* per-stage early-outs and a cycle skip that jumps over quiet cycles and
  busy-stall windows, bulk-accounting what those cycles would have added
  (specialized to the config's structure sizes).

The generated kernel must be *bit-identical* to ``_run_naive`` — same
SimStats, same commit stream, same exception behaviour.  Three invariants
make that safe:

* **hoisted-local freshness**: locals bound to containers that recovery
  rebinds (the scoreboard dict, rename-map entry lists, the
  conventional free deques, the sharing refcount lists) are
  re-hoisted after every call that can trigger a flush — exception and
  interrupt handlers, ``on_cycle`` hooks, the slow-path ``_commit``.
  Containers only ever mutated in place (ROB deque, completion heap,
  LSQ deques, PRT entry lists, retirement maps, register-file value
  dicts) are hoisted once.
* **mirror flushing**: the hottest counters (``stats.committed``, the
  four occupancy accumulators, ``proc._last_progress``) live in plain
  locals; they are flushed back to the processor before anything
  external can observe them (``on_cycle`` hooks, the slow-path
  ``_commit`` with its ``on_commit`` hook, watchdog aborts) and
  unconditionally in a ``finally`` block, so even a propagating
  simulation error leaves the processor's stats exactly as the naive
  loop would have.  After any delegated call that may mutate them they
  are re-read.
* **slow-path delegation**: anything cold or stateful-in-a-subtle-way
  (repair µop injection on stale sources, TLB and L1-D misses, new
  stride-table entries, prefetches of absent lines, operand mismatches,
  wrong-path squash, flush/replay, ``fetch.tick``) calls the original
  bound method, so there is exactly one implementation of the tricky
  parts.

:func:`repro.codegen.kernel_for` picks the kernel from the config alone.
The generated code inlines the stock renamer's and memory hierarchy's
methods, so a processor whose renamer or hierarchy overrides one of them
(a test double) must run with ``naive_loop=True``, whose virtual
dispatch honours the override.

The inlined data access reads these ``repro.mem`` internals:

* ``TLB._lru`` (the LRU ``OrderedDict``), ``TLB.stats``;
* ``Cache._sets`` (each ``_Set``'s ``tags``/``dirty`` lists, MRU last),
  ``Cache._prefetched``, ``Cache.line_bytes``/``num_sets``/
  ``hit_latency``, ``Cache.stats``;
* ``StridePrefetcher.table`` (its ``_Entry`` fields), ``mask``,
  ``threshold``, ``degree``, ``issued``: every hierarchy has the Table I
  prefetcher, so every load trains it.

The page size (``repro.isa.program.PAGE_BITS``), the issue-queue size
(``repro.pipeline.config.IQ_SIZE``) and the fetch-queue size
(``repro.frontend.fetch.FETCH_QUEUE``) are constants of the modelled
machine, inlined as literals like the config's own numbers.  The kernel
binds the containers and stats objects above once, when it starts, so
none of them may be rebound during a run.

``MemoryHierarchy.data_access``/``inst_fetch`` read the same internals
for their own flat hit paths, so a change to any of them changes both.
"""

from __future__ import annotations

from repro.frontend.fetch import FETCH_QUEUE
from repro.isa.program import PAGE_BITS
from repro.pipeline.config import IQ_SIZE
from repro.pipeline.lsq import LQ_SIZE, SQ_SIZE

#: schemes the generator knows how to flatten
KNOWN_SCHEMES = ("conventional", "sharing")

#: FU dispatch chain order, hottest kinds first (measured on hmmer)
_FU_ORDER = ("alu", "mem", "fpu", "branch", "mul", "div", "fpdiv")


class KernelUnavailable(RuntimeError):
    """No kernel can be generated for this configuration."""


def _reindent(block: str, pad: str) -> str:
    """Re-indent a template block (written at column 0) by ``pad``."""
    lines = []
    for line in block.strip("\n").splitlines():
        lines.append(pad + line if line.strip() else "")
    return "\n".join(lines)


def _shift(text: str) -> str:
    """Shift already-indented emitted text one level deeper."""
    return "\n".join("    " + line if line.strip() else ""
                     for line in text.splitlines())


#: mirror flush: plain stores — the locals own the authoritative values
_FLUSH = """
stats.committed = n_committed
stats.rob_occupancy_sum = occ_rob
stats.iq_occupancy_sum = occ_iq
stats.free_regs_sum = occ_free
stats.occupancy_samples = occ_samples
proc._last_progress = last_progress
"""


def _fu_chain(config) -> str:
    """Unrolled per-kind FU reservation; each miss ``continue``s to the
    next ready instruction (mirrors FUPool.try_issue returning None).
    Indented for the issue loop's body."""
    fu_config = dict(config.fu_config)
    kinds = [k for k in _FU_ORDER if k in fu_config]
    kinds += [k for k in fu_config if k not in kinds]
    parts = []
    for pos, kind in enumerate(kinds):
        count, latency, pipelined = fu_config[kind]
        kw = "if" if pos == 0 else "elif"
        if pipelined:
            parts.append(
                f'{kw} fu == "{kind}":\n'
                f'    _n = fus_used.get("{kind}", 0)\n'
                f'    if _n >= {count}:\n'
                f'        continue\n'
                f'    fus_used["{kind}"] = _n + 1\n'
                f'    latency = {latency}'
            )
        else:
            parts.append(
                f'{kw} fu == "{kind}":\n'
                f'    _n = fus_used.get("{kind}", 0)\n'
                f'    if _n >= {count}:\n'
                f'        continue\n'
                f'    _slots = fus_slots_{kind}\n'
                f'    for _si in range({count}):\n'
                f'        if _slots[_si] <= cycle:\n'
                f'            _slots[_si] = cycle + {latency}\n'
                f'            break\n'
                f'    else:\n'
                f'        continue\n'
                f'    fus_used["{kind}"] = _n + 1\n'
                f'    latency = {latency}'
            )
    # unknown kind: defer to the pool so the failure mode (KeyError)
    # matches the naive loop exactly
    parts.append(
        'else:\n'
        '    latency = fus.try_issue(fu, cycle)\n'
        '    if latency is None:\n'
        '        continue'
    )
    return _reindent("\n".join(parts), "            ")


def _refresh_block(scheme: str, pad: str) -> str:
    """Re-hoist every local that a flush/recovery can rebind."""
    lines = ["scoreboard = proc.scoreboard"]
    if scheme == "conventional":
        lines += [
            "int_free = _dom_int.free",
            "fp_free = _dom_fp.free",
            "int_map = _dom_int.map.entries",
            "fp_map = _dom_fp.map.entries",
        ]
    else:  # sharing
        lines += [
            "int_map = _dom_int.map.entries",
            "fp_map = _dom_fp.map.entries",
            "int_refcount = _dom_int.refcount",
            "fp_refcount = _dom_fp.refcount",
        ]
    return _reindent("\n".join(lines), pad)


# --------------------------------------------------------------------- scheme hoists
def _scheme_hoists(scheme: str) -> str:
    """The kernel's scheme-specific hoisted locals, at function level."""
    common = (
        "_dom_int = renamer._domains_by_value[0]\n"
        "_dom_fp = renamer._domains_by_value[1]\n"
        "int_map = _dom_int.map.entries\n"
        "fp_map = _dom_fp.map.entries\n"
        "int_retire = _dom_int.retire_map.entries\n"
        "fp_retire = _dom_fp.retire_map.entries\n"
        "int_rfv = _dom_int.rf._values\n"
        "fp_rfv = _dom_fp.rf._values\n"
        "int_caps = _dom_int.rf._capacity\n"
        "fp_caps = _dom_fp.rf._capacity\n"
    )
    if scheme == "conventional":
        block = common + (
            "int_free = _dom_int.free\n"
            "fp_free = _dom_fp.free\n"
        )
    else:  # sharing
        block = common + (
            "int_flist = _dom_int.free\n"
            "fp_flist = _dom_fp.free\n"
            "int_prt = _dom_int.prt.entries\n"
            "fp_prt = _dom_fp.prt.entries\n"
            "int_shadow = _dom_int.shadow_of\n"
            "fp_shadow = _dom_fp.shadow_of\n"
            "int_refcount = _dom_int.refcount\n"
            "fp_refcount = _dom_fp.refcount\n"
            "int_last_bank = _dom_int.config.num_banks - 1\n"
            "fp_last_bank = _dom_fp.config.num_banks - 1\n"
            "tp_table = renamer.predictor.table\n"
            "tp_mask = renamer.predictor.mask\n"
            "tp_max = renamer.predictor.max_value\n"
            "tp_stats = renamer.predictor.stats\n"
            "su_table = renamer.single_use.table\n"
            "su_mask = renamer.single_use.mask\n"
            "su_stats = renamer.single_use.stats\n"
            "renamer_release = renamer._release\n"
            "renamer_rename = renamer.rename\n"
            "renamer_can_rename = renamer.can_rename\n"
            "renamer_uops_needed = renamer.uops_needed\n"
        )
    return _reindent(block, "    ")


# --------------------------------------------------------------------- commit bodies
def _commit_renamer_block(scheme: str) -> str:
    """Inline of ``renamer.commit(head)`` for the fast commit path,
    indented for the commit loop's body."""
    if scheme == "conventional":
        block = """
dest = head.dest
dt = head.dest_tag
if dest is not None and dt is not None:
    if dt[0] == 0:
        _retire = int_retire; _free_sel = int_free; _rfv = int_rfv
    else:
        _retire = fp_retire; _free_sel = fp_free; _rfv = fp_rfv
    _idx = dest[1]
    _old = _retire[_idx]
    if _old is None:
        raise AssertionError("logical register " + str(_idx) + " unmapped")
    _retire[_idx] = (dt[1], dt[2])
    if _old[0] != dt[1]:
        _rfv.pop(_old[0], None)
        _free_sel.append(_old[0])
        ren_stats.releases += 1
"""
    else:  # sharing
        # the release path is fully inlined (consumers-log training, bank
        # predictor on_release, register-file drop, free-list push, PRT
        # reset); it must mirror SharingRenamer._release exactly
        block = """
dt = head.dest_tag
if head.dest is not None and dt is not None:
    if dt[0] == 0:
        _retire = int_retire; _refcount = int_refcount
        _prt_sel = int_prt; _shadow_sel = int_shadow
        _rfv_sel = int_rfv; _flist_sel = int_flist
    else:
        _retire = fp_retire; _refcount = fp_refcount
        _prt_sel = fp_prt; _shadow_sel = fp_shadow
        _rfv_sel = fp_rfv; _flist_sel = fp_flist
    _idx = head.dest[1]
    _old = _retire[_idx]
    _np = dt[1]
    if _old[0] != _np or _old[1] != dt[2]:
        _retire[_idx] = (_np, dt[2])
        _refcount[_np] += 1
        _op = _old[0]
        _refcount[_op] -= 1
        if _refcount[_op] == 0:
            _pe = _prt_sel[_op]
            _missed = 0
            _clog = _pe.consumers_log
            if _clog:
                _muv = _pe.multi_use_versions
                for _cpc, _cver, _ckind in _clog:
                    if _cver not in _muv:
                        _si = (_cpc ^ (_cpc >> 9)) & su_mask
                        _sv = su_table[_si] + 1
                        su_table[_si] = _sv if _sv < 3 else 3
                        if _ckind != "reused":
                            su_stats.missed += 1
                            if _ckind == "denied_pred":
                                _missed += 1
                        else:
                            su_stats.confirmed_good += 1
            _ai = _pe.alloc_index
            if _ai >= 0:
                tp_stats.releases += 1
                _pb = _shadow_sel[_op]
                _ar = _pe.version
                _xu = _pe.extra_use
                if _ar == _pb and not _xu and _missed == 0:
                    tp_stats.exact_hits += 1
                if _xu:
                    tp_stats.reuse_incorrect += 1
                    tp_table[_ai] = 0
                elif _pb > 0:
                    if _ar > 0:
                        tp_stats.reuse_correct += 1
                    else:
                        tp_stats.reuse_unused += 1
                    if _ar < _pb:
                        _tv = tp_table[_ai] - 1
                        tp_table[_ai] = _tv if _tv > 0 else 0
                elif _missed > 0:
                    tp_stats.no_reuse_incorrect += 1
                else:
                    tp_stats.no_reuse_correct += 1
            _rfv_sel.pop(_op, None)
            if _flist_sel._is_free[_op]:
                raise AssertionError("double free of p" + str(_op))
            _flist_sel._free[_flist_sel._bank_of[_op]].append(_op)
            _flist_sel._is_free[_op] = True
            _flist_sel._count += 1
            _pe.read_bit = False
            _pe.version = 0
            _pe.alloc_index = -1
            _pe.predicted_single_use = False
            _pe.extra_use = False
            _pe.lost_reuse = 0
            _pe.consumers_log = []
            _pe.multi_use_versions = set()
            ren_stats.releases += 1
"""
    return _reindent(block, "            ")


# --------------------------------------------------------------------- writeback write
#: inline of ``renamer.write(dest_tag, result)``
_RF_WRITE = """
if dt[0] == 0:
    _rfv = int_rfv; _caps = int_caps
else:
    _rfv = fp_rfv; _caps = fp_caps
_ph = dt[1]
_ver = dt[2]
if _ph >= 0 and _ver >= _caps[_ph]:
    raise AssertionError(
        "write of version " + str(_ver) + " exceeds capacity "
        + str(_caps[_ph]) + " of p" + str(_ph))
_vers = _rfv.get(_ph)
if _vers is None:
    _rfv[_ph] = {_ver: _result}
else:
    _vers[_ver] = _result
"""


# --------------------------------------------------------------------- memory access
#: hoists for the inlined MemoryHierarchy.data_access (they read the
#: stock mem/ classes' internals)
_MEM_HOISTS = """
hierarchy = proc.hierarchy
tlb = hierarchy.tlb
tlb_lru = tlb._lru
tlb_translate = tlb.translate
tlb_stats = tlb.stats
l1d = hierarchy.l1d
l1d_stats = l1d.stats
l1d_sets = l1d._sets
l1d_line = l1d.line_bytes
l1d_nsets = l1d.num_sets
l1d_hit = l1d.hit_latency
l1d_prefetched = l1d._prefetched
l1d_access = l1d.access
l1d_prefetch = l1d.prefetch
pf = hierarchy.prefetcher
pf_table = pf.table
pf_mask = pf.mask
pf_threshold = pf.threshold
pf_degree = pf.degree
pf_observe = pf.observe
"""


def _data_access_block(is_write: bool, pad: str) -> str:
    """Inline of ``hierarchy.data_access(_mpc, _maddr, is_write, cycle)``
    into ``_mlat``.

    TLB and L1-D hits, and stride-table training, run inline; a TLB miss,
    an L1-D miss, a new prefetcher entry and a prefetch of an absent line
    call the bound methods.
    """
    dirty = "\n    _mset.dirty[-1] = True" if is_write else ""
    block = f"""
_mpage = _maddr >> {PAGE_BITS}
if _mpage in tlb_lru:
    tlb_stats.accesses += 1
    tlb_lru.move_to_end(_mpage)
    _mlat = 0
else:
    _mlat = tlb_translate(_maddr)
_mblk = _maddr // l1d_line
_mset = l1d_sets[_mblk % l1d_nsets]
_mtags = _mset.tags
_mtag = _mblk // l1d_nsets
if _mtag in _mtags:
    l1d_stats.accesses += 1
    l1d_stats.hits += 1
    if _mblk in l1d_prefetched:
        l1d_prefetched.discard(_mblk)
        l1d_stats.prefetch_hits += 1
    if _mtags[-1] != _mtag:
        _mway = _mtags.index(_mtag)
        _mtags.append(_mtags.pop(_mway))
        _mdirty = _mset.dirty
        _mdirty.append(_mdirty.pop(_mway)){dirty}
    _mlat += l1d_hit
else:
    _mlat += l1d_access(_maddr, {is_write}, cycle)
"""
    if not is_write:
        block += """
_mpe = pf_table.get(_mpc & pf_mask)
if _mpe is None:
    pf_observe(_mpc, _maddr, l1d, cycle)
else:
    _mstride = _maddr - _mpe.last_addr
    if _mstride != 0 and _mstride == _mpe.stride:
        _mconf = _mpe.confidence + 1
        _mpe.confidence = _mconf if _mconf < 3 else 3
    else:
        _mpe.confidence = 0
        _mpe.stride = _mstride
    _mpe.last_addr = _maddr
    if _mpe.confidence >= pf_threshold and _mstride != 0:
        for _mk in range(1, pf_degree + 1):
            _mpaddr = _maddr + _mk * _mstride
            _mblk = _mpaddr // l1d_line
            _mset = l1d_sets[_mblk % l1d_nsets]
            if _mblk // l1d_nsets not in _mset.tags:
                l1d_prefetch(_mpaddr, cycle)
            pf.issued += 1
"""
    return _reindent(block, pad)


# --------------------------------------------------------------------- operand verification
#: inline of Processor._verify_operands: register-file reads compared
#: with values_equal's NaN rule; a missing version or a mismatch calls
#: the bound method, so the error and its message come from one place
_VERIFY = """
if not dyn.wrong_path:
    for _tag, _exp in zip(dyn.src_tags, dyn.src_values):
        if _exp is None:
            continue
        try:
            _act = (int_rfv if _tag[0] == 0 else fp_rfv)[_tag[1]][_tag[2]]
        except KeyError:
            proc_verify(dyn)
            break
        if not (_act == _exp or (_act != _act and _exp != _exp)):
            proc_verify(dyn)
            break
"""


# --------------------------------------------------------------------- rename bodies
def _rename_body(config) -> str:
    """The fused rename/dispatch stage for the configured scheme.

    Emitted inside ``while dispatched < RW:``, indented for its body.
    """
    scheme = config.scheme
    ROB = config.rob_size
    IQS = IQ_SIZE
    MAXV = (1 << config.counter_bits) - 1

    head = """
if not fetch_queue:
    break
dyn = fetch_queue[0]
_srcs = dyn.srcs
"""
    if scheme == "sharing":
        # one staleness scan per instruction, shared by the slot check,
        # the register-pressure check and the repair delegation below
        head += """
_stale = False
for _s in _srcs:
    if _s[0] is _RC_INT:
        _t = int_map[_s[1]]
        if _t[1] < int_prt[_t[0]].version:
            _stale = True
            break
    else:
        _t = fp_map[_s[1]]
        if _t[1] < fp_prt[_t[0]].version:
            _stale = True
            break
"""
    head += f"""
if {ROB} - len(rob_entries) >= 7 and {IQS} - iq._size >= 7:
    pass
else:
"""
    if scheme == "conventional":
        head += """
    if len(rob_entries) >= {ROB}:
        stats.rename_stall_rob += 1
        rename_stall = 1
        break
    if iq._size >= {IQS}:
        stats.rename_stall_iq += 1
        rename_stall = 2
        break
""".format(ROB=ROB, IQS=IQS)
    else:
        # uops_needed() is only non-zero when a source is stale (repair
        # µops): price the group with the bound method only in that case
        head += f"""
    _slots = renamer_uops_needed(dyn, is_ready) + 1 if _stale else 1
    if {ROB} - len(rob_entries) < _slots:
        stats.rename_stall_rob += 1
        rename_stall = 1
        break
    if {IQS} - iq._size < _slots:
        stats.rename_stall_iq += 1
        rename_stall = 2
        break
"""
    head += f"""
info = dyn._info
if info is None:
    info = OPCODES[dyn.op]
    dyn._info = info
_is_load = info.is_load
_is_store = info.is_store
if _is_load:
    if lsq._loads >= {LQ_SIZE}:
        stats.rename_stall_lsq += 1
        rename_stall = 3
        break
elif _is_store:
    if lsq._stores >= {SQ_SIZE}:
        stats.rename_stall_lsq += 1
        rename_stall = 3
        break
dest = dyn.dest
"""

    if scheme == "conventional":
        can_rename = """
if dest is not None:
    if not (int_free if dest[0] is _RC_INT else fp_free):
        stats.rename_stall_regs += 1
        rename_stall = 4
        break
fetch_queue.popleft()
ren_stats.insts += 1
"""
    else:
        # SharingRenamer.can_rename (Section IV-A4: block only when no
        # register is free *and* no reuse is possible).  Without a stale
        # source only the destination can need a register, so rename
        # stalls iff its file is empty and no same-class source passes
        # _reusable_via(dry_run=True); the scan below is that check,
        # side-effect free.  Stale sources (repairs) delegate.
        can_rename = """
_wc = len(_srcs) + 1
if int_flist._count >= _wc and fp_flist._count >= _wc:
    pass
elif _stale:
    if not renamer_can_rename(dyn):
        stats.rename_stall_regs += 1
        rename_stall = 4
        break
elif dest is not None and (int_flist if dest[0] is _RC_INT
                           else fp_flist)._count == 0:
    if dest[0] is _RC_INT:
        _map = int_map; _prt = int_prt; _shadow = int_shadow
    else:
        _map = fp_map; _prt = fp_prt; _shadow = fp_shadow
    for _i in range(len(_srcs)):
        _s = _srcs[_i]
        if _s[0] is not dest[0]:
            continue
        _t = _map[_s[1]]
        _e = _prt[_t[0]]
        if _e.version != _t[1] or _e.read_bit:
            continue
        if _s != dest:
            _pc = dyn.pc
            if su_table[(_pc ^ (_pc >> 9)) & su_mask] < 2:
                continue
        if _t[1] < $MAXV and _t[1] < _shadow[_t[0]]:
            break
    else:
        stats.rename_stall_regs += 1
        rename_stall = 4
        break
fetch_queue.popleft()
"""
        can_rename = can_rename.replace("$MAXV", str(MAXV))

    if scheme == "conventional":
        rename_core = """
src_tags = []
for _s in _srcs:
    if _s[0] is _RC_INT:
        _t = int_map[_s[1]]
        if _t is None:
            raise AssertionError(
                "logical register " + str(_s[1]) + " unmapped")
        src_tags.append((0, _t[0], _t[1]))
    else:
        _t = fp_map[_s[1]]
        if _t is None:
            raise AssertionError(
                "logical register " + str(_s[1]) + " unmapped")
        src_tags.append((1, _t[0], _t[1]))
dyn.src_tags = src_tags
if dest is not None:
    ren_stats.dest_insts += 1
    if dest[0] is _RC_INT:
        _cv = 0; _map = int_map; _free_sel = int_free
    else:
        _cv = 1; _map = fp_map; _free_sel = fp_free
    if not _free_sel:
        raise AssertionError("rename called without a free register")
    _ph = _free_sel.popleft()
    _prev = _map[dest[1]]
    if _prev is None:
        raise AssertionError(
            "logical register " + str(dest[1]) + " unmapped")
    dyn.prev_map = _prev
    dyn.allocated_new = True
    dyn.alloc_bank = 0
    _map[dest[1]] = (_ph, 0)
    dyn.dest_tag = (_cv, _ph, 0)
    ren_stats.allocations += 1
    ren_stats.allocations_per_bank[0] += 1
"""
    else:  # sharing
        # a stale source needs repair µops (predictor training + extra
        # allocations): delegate the whole instruction to the bound
        # rename() *before* any inline mutation, so nothing double-applies
        rename_core = """
if _stale:
    group = renamer_rename(dyn, is_ready)
    for renamed in group:
        renamed.rename_cycle = cycle
        if renamed.dest_tag is not None:
            scoreboard[renamed.dest_tag] = False
        rob_push(renamed)
        iq_insert(renamed, is_ready)
        if renamed.info.is_mem:
            lsq_insert(renamed)
    dispatched += len(group)
    last_progress = cycle
    continue
ren_stats.insts += 1
src_tags = []
# first_use[i]: source i's value was unread before this instruction; a
# repeated tag shares its first occurrence's answer
first_use = []
for _s in _srcs:
    if _s[0] is _RC_INT:
        _cv = 0; _map = int_map; _prt = int_prt
    else:
        _cv = 1; _map = fp_map; _prt = fp_prt
    _t = _map[_s[1]]
    _ph = _t[0]
    _ver = _t[1]
    _e = _prt[_ph]
    _key = (_cv, _ph, _ver)
    if _key in src_tags:
        first_use.append(first_use[src_tags.index(_key)])
    else:
        _rb = _e.read_bit
        first_use.append(not _rb)
        if _rb and _e.version == _ver:
            _e.multi_use_versions.add(_ver)
            if _e.predicted_single_use:
                ren_stats.multi_use_detected += 1
                _ai = _e.alloc_index
                if _ai >= 0:
                    tp_table[_ai] = 0
    _e.read_bit = True
    src_tags.append(_key)
dyn.src_tags = src_tags
if dest is not None:
    ren_stats.dest_insts += 1
    if dest[0] is _RC_INT:
        _cv = 0; _map = int_map; _prt = int_prt; _flist = int_flist
        _shadow = int_shadow; _rfv = int_rfv; _last_bank = int_last_bank
    else:
        _cv = 1; _map = fp_map; _prt = fp_prt; _flist = fp_flist
        _shadow = fp_shadow; _rfv = fp_rfv; _last_bank = fp_last_bank
    _didx = dest[1]
    dyn.prev_map = _map[_didx]
    # sources naming the destination first (guaranteed reuse), then the
    # rest, each group in operand order
    _n = len(_srcs)
    if _n == 2:
        order = (1, 0) if _srcs[1] == dest and _srcs[0] != dest else (0, 1)
    elif _n < 2:
        order = (0,) if _n else ()
    else:
        order = [_i for _i in range(_n) if _srcs[_i] == dest]
        order += [_i for _i in range(_n) if _srcs[_i] != dest]
    _pc = dyn.pc
    _reused = False
    for _i in order:
        _s = _srcs[_i]
        if _s[0] is not dest[0]:
            continue
        _tag = src_tags[_i]
        _ph = _tag[1]
        _ver = _tag[2]
        _e = _prt[_ph]
        if _e.version != _ver:
            continue
        if not first_use[_i]:
            if _s == dest:
                ren_stats.lost_reuse_not_first_use += 1
            continue
        if _s != dest:
            su_stats.predictions += 1
            _pred = su_table[(_pc ^ (_pc >> 9)) & su_mask] >= 2
            if _pred:
                su_stats.predicted_yes += 1
            if not _pred and _flist._count > 0:
                _e.lost_reuse += 1
                _log = _e.consumers_log
                if len(_log) < 16:
                    _log.append((_pc, _ver, "denied_pred"))
                ren_stats.lost_reuse_not_predicted += 1
                continue
        if _ver >= $MAXV:
            ren_stats.lost_reuse_saturated += 1
            continue
        if _ver >= _shadow[_ph]:
            _e.lost_reuse += 1
            _log = _e.consumers_log
            if len(_log) < 16:
                _log.append((_pc, _ver, "denied_cap"))
            _ai = _e.alloc_index
            if _ai >= 0:
                _tv = tp_table[_ai] + 1
                tp_table[_ai] = _tv if _tv < tp_max else tp_max
            ren_stats.lost_reuse_no_shadow += 1
            continue
        _nv = _ver + 1
        _e.version = _nv
        _e.read_bit = False
        _map[_didx] = (_ph, _nv)
        dyn.dest_tag = (_cv, _ph, _nv)
        dyn.reused_src = _i
        ren_stats.reuses += 1
        if _s == dest:
            ren_stats.reuses_guaranteed += 1
        else:
            ren_stats.reuses_predicted += 1
            _log = _e.consumers_log
            if len(_log) < 16:
                _log.append((_pc, _ver, "reused"))
        _reused = True
        break
    if not _reused:
        _pi = (_pc ^ (_pc >> 9)) & tp_mask
        tp_stats.predictions += 1
        _pb = tp_table[_pi]
        _bank = _pb if _pb < _last_bank else _last_bank
        _dq = _flist._free[_bank]
        if _dq:
            _flist._count -= 1
            _ph = _dq.popleft()
            _flist._is_free[_ph] = False
            _ab = _bank
        else:
            _alloc = _flist.allocate(_bank)
            if _alloc is None:
                raise AssertionError(
                    "rename called without a free register")
            _ph, _ab = _alloc
        if _ab != _bank:
            ren_stats.fallback_allocations += 1
        _rfv.pop(_ph, None)
        _e = _prt[_ph]
        _e.read_bit = False
        _e.version = 0
        _e.alloc_index = _pi
        _e.predicted_single_use = _pb > 0
        _e.extra_use = False
        _e.lost_reuse = 0
        _e.consumers_log = []
        _e.multi_use_versions = set()
        _map[_didx] = (_ph, 0)
        dyn.dest_tag = (_cv, _ph, 0)
        dyn.allocated_new = True
        dyn.alloc_bank = _ab
        ren_stats.allocations += 1
        ren_stats.allocations_per_bank[_ab] += 1
"""
        rename_core = rename_core.replace("$MAXV", str(MAXV))

    dispatch_tail = f"""
dyn.rename_cycle = cycle
dt = dyn.dest_tag
if dt is not None:
    scoreboard[dt] = False
if len(rob_entries) >= {ROB}:
    raise AssertionError("ROB overflow")
rob_entries.append(dyn)
if iq._size >= {IQS}:
    raise AssertionError("issue queue overflow")
waiting = None
for _tag in dyn.src_tags:
    if not scoreboard.get(_tag, False):
        if waiting is None:
            waiting = {{_tag}}
        else:
            waiting.add(_tag)
_entry = _IQEntry(dyn, waiting, next(iq_ticket))
iq_by_dyn[id(dyn)] = _entry
iq._size += 1
if waiting:
    for _tag in waiting:
        _wl = iq_by_tag.get(_tag)
        if _wl is None:
            iq_by_tag[_tag] = [_entry]
        else:
            _wl.append(_entry)
else:
    iq._ready.append(_entry)
    iq._ready_view = None
if _is_load or _is_store:
    _me = _MemEntry(dyn, _is_store,
                    0 if _is_store else lsq._unissued_stores)
    lsq_entries.append(_me)
    lsq_by_id[id(dyn)] = _me
    dyn.lsq_entry = _me
    if _is_store:
        lsq._stores += 1
        lsq._unissued_stores += 1
    else:
        lsq._loads += 1
dispatched += 1
last_progress = cycle
"""
    return _reindent(head + can_rename + rename_core + dispatch_tail,
                     "        ")


# --------------------------------------------------------------------- generator
def generate_kernel_source(config) -> str:
    """Emit the flattened kernel module body for ``config``.

    The returned text defines ``run_kernel(proc, max_insts=None)`` and is
    compiled in memory, once per distinct config.  Raises
    :class:`KernelUnavailable` for schemes the generator does not know.
    """
    scheme = config.scheme
    if scheme not in KNOWN_SCHEMES:
        raise KernelUnavailable(f"no kernel generator for scheme {scheme!r}")

    RW = config.rename_width
    IW = config.issue_width
    CW = config.commit_width
    MAXC = config.max_cycles
    II = config.interrupt_interval
    PS = config.rf_port_scheme
    VV = config.verify_values
    MWP = config.model_wrong_path

    unpipelined = [k for k, (_c, _l, piped) in config.fu_config if not piped]

    L: list[str] = []
    L.append(f'"""Generated cycle kernel (scheme={scheme!r}).')
    L.append("")
    L.append("Machine-generated by repro.codegen.generator from the")
    L.append("MachineConfig alone and compiled in memory.  Must stay")
    L.append('bit-identical to _run_naive."""')
    L.append("import heapq")
    L.append("")
    L.append("from repro.isa.opcodes import OPCODES, Op")
    L.append("from repro.isa.registers import RegClass")
    L.append("from repro.pipeline.issue_queue import _Entry as _IQEntry, _ticket_of")
    L.append("from repro.pipeline.lsq import _MemEntry")
    L.append("")
    L.append("_heappush = heapq.heappush")
    L.append("_heappop = heapq.heappop")
    L.append("_OP_HALT = Op.HALT")
    L.append("_RC_INT = RegClass.INT")
    L.append("")
    L.append("")
    L.append("def run_kernel(proc, max_insts=None):")
    L.append("    config = proc.config")
    guard = (f'config.scheme != "{scheme}" or config.rename_width != {RW} '
             f'or config.issue_width != {IW} or config.commit_width != {CW} '
             f'or config.rob_size != {config.rob_size} '
             f'or config.max_cycles != {MAXC}')
    L.append(f"    if {guard}:")
    L.append('        raise RuntimeError(')
    L.append('            "generated kernel does not match this MachineConfig")')

    L.append(_reindent("""
stats = proc.stats
renamer = proc.renamer
ren_stats = renamer.stats
fetch = proc.fetch
fetch_queue = fetch.queue
fetch_tick = fetch.tick
fetch_next_active = fetch.next_active_cycle
fetch_account_idle = fetch.account_idle
fetch_branch_resolved = fetch.branch_resolved
rob_entries = proc.rob._entries
rob_push = proc.rob.push
iq = proc.iq
iq_by_dyn = iq._by_dyn
iq_by_tag = iq._by_tag
iq_ticket = iq._ticket
iq_ready_entries = iq.ready_entries
iq_insert = iq.insert
lsq = proc.lsq
lsq_entries = lsq._entries
lsq_by_id = lsq._by_id
lsq_retire = lsq.retire
lsq_mark_issued = lsq.mark_issued
lsq_forwarding = lsq.forwarding_store
lsq_insert = lsq.insert
fus = proc.fus
fus_used = fus._used
completion = proc.completion
ticket = proc._ticket
on_cycle = proc.on_cycle
interval = proc.on_cycle_interval
slow_commit = proc.on_commit is not None
proc_commit = proc._commit
is_ready = proc.is_ready
scoreboard = proc.scoreboard
n_committed = stats.committed
occ_rob = stats.rob_occupancy_sum
occ_iq = stats.iq_occupancy_sum
occ_free = stats.free_regs_sum
occ_samples = stats.occupancy_samples
last_progress = proc._last_progress
""", "    "))
    L.append(_reindent(_MEM_HOISTS, "    "))
    if VV:
        L.append("    proc_verify = proc._verify_operands")
    if PS != "none":
        # read-port-reduction scheme active: the whole issue stage is
        # delegated to the bound method (one implementation of the port
        # plan/commit protocol, shared with the naive loop)
        L.append("    proc_issue = proc._issue")
    if PS == "bypass_filter":
        L.append("    ports_note_write = proc.read_ports.note_writeback")
    for kind in unpipelined:
        L.append(f'    fus_slots_{kind} = fus._busy_until["{kind}"]')
    L.append(_scheme_hoists(scheme))
    L.append("    cycle = proc.cycle")
    if II:
        L.append(f"    next_interrupt = {II}")

    # ---- main loop (assembled separately, then wrapped in try/finally:
    # the mirror flush must run even when a simulation error propagates)
    B: list[str] = []
    B.append(_reindent("""
while True:
    if proc._halted:
        break
    if max_insts is not None and n_committed >= max_insts:
        break
    if (not rob_entries and not fetch_queue and fetch._eof
            and fetch._pending is None and not fetch.replay):
        break
    cycle += 1
    proc.cycle = cycle
""", "    "))

    if II:
        B.append(_reindent(f"""
if cycle >= next_interrupt:
{_reindent(_FLUSH, "    ")}
    try:
        _penalty = proc._handle_interrupt()
    finally:
{_refresh_block(scheme, "        ")}
        last_progress = proc._last_progress
    next_interrupt = cycle + {II} + _penalty
""", "        "))

    # ---- commit --------------------------------------------------------
    B.append(_reindent(f"""
if rob_entries and rob_entries[0].completed:
    if slow_commit:
{_reindent(_FLUSH, "        ")}
        try:
            proc_commit()
        finally:
{_refresh_block(scheme, "            ")}
            n_committed = stats.committed
            last_progress = proc._last_progress
    else:
        _committed = 0
        while _committed < {CW}:
            if not rob_entries:
                break
            head = rob_entries[0]
            if not head.completed:
                break
            if head.exception_raised:
{_reindent(_FLUSH, "                ")}
                try:
                    proc._handle_exception(head)
                finally:
{_refresh_block(scheme, "                    ")}
                    last_progress = proc._last_progress
                break
            if head.wrong_path:
                raise AssertionError(
                    "wrong-path instruction reached commit: the "
                    "mispredicted branch must have resolved (and "
                    "squashed it) first")
            rob_entries.popleft()
            head.commit_cycle = cycle
            info = head._info
            if info is None:
                info = OPCODES[head.op]
                head._info = info
            if info.is_store:
                _maddr = head.mem_addr
{_data_access_block(True, "                ")}
                lsq_retire(head)
                stats.stores += 1
            elif info.is_load:
                lsq_retire(head)
                stats.loads += 1
{_commit_renamer_block(scheme)}
            if head.micro_op:
                stats.committed_uops += 1
            else:
                n_committed += 1
            if head.op is _OP_HALT:
                proc._halted = True
                break
            _committed += 1
            last_progress = cycle
""", "        "))

    # ---- writeback -----------------------------------------------------
    wb: list[str] = []
    wb.append("if completion and completion[0][0] <= cycle:")
    wb.append("    while completion and completion[0][0] <= cycle:")
    wb.append("        _item = _heappop(completion)")
    wb.append("        dyn = _item[2]")
    wb.append("        if dyn.squashed:")
    wb.append("            continue")
    wb.append("        dt = dyn.dest_tag")
    wb.append("        dyn.completed = True")
    wb.append("        dyn.complete_cycle = cycle")
    wb.append("        if dt is not None:")
    wb.append("            _result = dyn.result")
    wb.append("            if _result is not None:")
    wb.append(_reindent(_RF_WRITE, "                "))
    wb.append("            scoreboard[dt] = True")
    if PS == "bypass_filter":
        wb.append("            ports_note_write(dt, cycle)")
    wb.append("            _wl = iq_by_tag.pop(dt, None)")
    wb.append("            if _wl:")
    wb.append("                _ready = iq._ready")
    wb.append("                for _entry in _wl:")
    wb.append("                    if _entry.removed:")
    wb.append("                        continue")
    wb.append("                    _w = _entry.waiting")
    wb.append("                    _w.discard(dt)")
    wb.append("                    if not _w:")
    wb.append("                        _entry.in_ready = True")
    wb.append("                        if (_ready and")
    wb.append("                                _ready[-1].ticket > _entry.ticket):")
    wb.append("                            iq._ready_dirty = True")
    wb.append("                        _ready.append(_entry)")
    wb.append("                        iq._ready_view = None")
    wb.append("        info = dyn._info")
    wb.append("        if info is None:")
    wb.append("            info = OPCODES[dyn.op]")
    wb.append("            dyn._info = info")
    wb.append("        if info.is_branch:")
    if MWP:
        wb.append("            _extra = 0")
        wb.append("            if dyn.mispredicted and not dyn.wrong_path:")
        wb.append("                _extra = proc._squash_wrong_path(dyn)")
        wb.append("            fetch_branch_resolved(dyn, cycle, _extra)")
    else:
        wb.append("            fetch_branch_resolved(dyn, cycle, 0)")
    wb.append("        last_progress = cycle")
    B.append(_reindent("\n".join(wb), "        "))

    # ---- issue (ready_entries() inlined at the gate) --------------------
    # With a read-port-reduction scheme active the whole stage is
    # delegated to the bound Processor._issue (emitted below) so the port
    # plan/commit protocol has exactly one implementation; the inline
    # fast path built here is only emitted for rf_port_scheme == "none".
    iss: list[str] = []
    iss.append("_rl = iq._ready")
    iss.append("if _rl:")
    iss.append("    if iq._ready_stale:")
    iss.append("        _rl = [_e for _e in _rl if not _e.removed]")
    iss.append("        iq._ready = _rl")
    iss.append("        iq._ready_stale = False")
    iss.append("        iq._ready_view = None")
    iss.append("    if iq._ready_dirty:")
    iss.append("        _rl.sort(key=_ticket_of)")
    iss.append("        iq._ready_dirty = False")
    iss.append("        iq._ready_view = None")
    iss.append("    ready = iq._ready_view")
    iss.append("    if ready is None:")
    iss.append("        ready = [_e.dyn for _e in _rl]")
    iss.append("        iq._ready_view = ready")
    iss.append("    if ready:")
    iss.append("        issued = 0")
    iss.append("        for dyn in ready:")
    iss.append(f"            if issued >= {IW}:")
    iss.append("                break")
    iss.append("            info = dyn._info")
    iss.append("            if info is None:")
    iss.append("                info = OPCODES[dyn.op]")
    iss.append("                dyn._info = info")
    iss.append("            _is_load = info.is_load")
    iss.append("            if _is_load and not dyn.faults:")
    iss.append("                _le = dyn.lsq_entry")
    iss.append("                if _le is None:")
    iss.append('                    raise AssertionError("instruction not in LSQ")')
    iss.append("                if _le.blockers != 0:")
    iss.append("                    continue")
    iss.append("            fu = info.fu")
    iss.append("            if fus._cycle != cycle:")
    iss.append("                fus._cycle = cycle")
    iss.append("                fus_used.clear()")
    iss.append(_fu_chain(config))
    iss.append("            if dyn.faults:")
    iss.append("                total = latency")
    iss.append("                dyn.exception_raised = True")
    iss.append("            elif _is_load:")
    iss.append("                _fwd = lsq_forwarding(dyn)")
    iss.append("                if _fwd is not None:")
    iss.append("                    total = latency + 1")
    iss.append("                    stats.store_forwards += 1")
    iss.append("                else:")
    iss.append("                    _mpc = dyn.pc")
    iss.append("                    _maddr = dyn.mem_addr")
    iss.append(_data_access_block(False, "                    "))
    iss.append("                    total = latency + _mlat")
    iss.append("                _le = dyn.lsq_entry")
    iss.append("                if _le is None:")
    iss.append('                    raise AssertionError("instruction not in LSQ")')
    iss.append("                if not _le.issued:")
    iss.append("                    _le.issued = True")
    iss.append("            elif info.is_store:")
    iss.append("                total = latency")
    iss.append("                lsq_mark_issued(dyn)")
    iss.append("            else:")
    iss.append("                total = latency")
    if VV:
        iss.append(_reindent(_VERIFY, "            "))
    iss.append("            _entry = iq_by_dyn.pop(id(dyn), None)")
    iss.append("            if _entry is None:")
    iss.append('                raise AssertionError("instruction not in issue queue")')
    iss.append("            _entry.removed = True")
    iss.append("            iq._size -= 1")
    iss.append("            if _entry.in_ready:")
    iss.append("                iq._ready_stale = True")
    iss.append("                iq._ready_view = None")
    iss.append("            dyn.issue_cycle = cycle")
    iss.append("            _heappush(completion,")
    iss.append("                      (cycle + total, next(ticket), dyn))")
    iss.append("            stats.issued += 1")
    iss.append("            issued += 1")
    iss.append("            last_progress = cycle")
    if PS == "none":
        B.append(_reindent("\n".join(iss), "        "))
    else:
        # the mirror is flushed first because _issue writes
        # proc._last_progress: when nothing issues, the finally must read
        # back the value just flushed, not a stale one
        B.append(_reindent(f"""
if iq._ready:
{_reindent(_FLUSH, "    ")}
    try:
        proc_issue()
    finally:
        last_progress = proc._last_progress
""", "        "))

    # ---- rename/dispatch ----------------------------------------------
    ren: list[str] = []
    ren.append("rename_stall = 0")
    ren.append("if fetch_queue:")
    ren.append("    dispatched = 0")
    ren.append(f"    while dispatched < {RW}:")
    ren.append(_rename_body(config))
    B.append(_reindent("\n".join(ren), "        "))

    # ---- fetch + accounting + hooks + watchdogs ------------------------
    free_expr = ("int_flist._count" if scheme == "sharing"
                 else "len(int_free)")
    B.append(_reindent(f"""
fetch_tick(cycle)
occ_rob += len(rob_entries)
occ_iq += iq._size
occ_free += {free_expr}
occ_samples += 1
if on_cycle is not None and cycle % interval == 0:
{_reindent(_FLUSH, "    ")}
    try:
        on_cycle(proc)
    finally:
{_refresh_block(scheme, "        ")}
        n_committed = stats.committed
        occ_rob = stats.rob_occupancy_sum
        occ_iq = stats.iq_occupancy_sum
        occ_free = stats.free_regs_sum
        occ_samples = stats.occupancy_samples
        last_progress = proc._last_progress
        # the hook may have changed what rename sees: no busy-stall skip
        # until a real cycle observes the stall again
        rename_stall = 0
if cycle > {MAXC}:
{_reindent(_FLUSH, "    ")}
    proc._watchdog_abort(
        "cycle budget ({MAXC}) exceeded")
if cycle - last_progress > 200_000:
{_reindent(_FLUSH, "    ")}
    proc._watchdog_abort(
        "pipeline deadlock: no progress for "
        + str(cycle - last_progress) + " cycles")
""", "        "))

    # ---- cycle-skip: quiet cycles and busy-stall windows ---------------
    QS = FETCH_QUEUE
    skip: list[str] = []
    skip.append("if proc._halted:")
    skip.append("    continue")
    skip.append("if rob_entries and rob_entries[0].completed:")
    skip.append("    continue")
    skip.append("if max_insts is not None and n_committed >= max_insts:")
    skip.append("    continue")
    skip.append("if fetch_queue:")
    skip.append("    # busy-stall window: rename is structurally stalled, this")
    skip.append("    # cycle made zero progress (nothing committed, wrote back,")
    skip.append("    # issued or renamed — ready entries, if any, are pinned by")
    skip.append("    # load blockers or an unpipelined unit: a port denial needs")
    skip.append("    # an issue in the same cycle), the ROB head is")
    skip.append("    # incomplete and fetch is quiescent (tick is a pure no-op on")
    skip.append("    # a full queue with no redirect/I-cache stall pending, or")
    skip.append("    # while blocked on an unresolved branch).  Every cycle until")
    skip.append("    # the next completion or unpipelined-unit release replays")
    skip.append("    # identically: same stall counter bump, no state change.")
    skip.append("    if rename_stall == 0 or last_progress == cycle:")
    skip.append("        continue")
    skip.append("    if not (fetch._waiting_branch_seq is not None")
    skip.append(f"            or (len(fetch_queue) >= {QS}")
    skip.append("                and fetch._resume_at is None")
    skip.append("                and cycle >= fetch._stall_until)):")
    skip.append("        continue")
    skip.append("    target = completion[0][0] if completion else None")
    for kind in unpipelined:
        skip.append(f"    for _v in fus_slots_{kind}:")
        skip.append("        if _v > cycle and (target is None or _v < target):")
        skip.append("            target = _v")
    skip.append("else:")
    skip.append("    # quiet window: nothing to rename, issue or commit until")
    skip.append("    # the next completion or fetch wake-up")
    skip.append("    if iq._ready and iq_ready_entries():")
    skip.append("        continue")
    skip.append("    if (not rob_entries and fetch._eof")
    skip.append("            and fetch._pending is None and not fetch.replay):")
    skip.append("        continue")
    skip.append("    target = completion[0][0] if completion else None")
    skip.append("    wake = fetch_next_active(cycle)")
    skip.append("    if wake is not None and (target is None or wake < target):")
    skip.append("        target = wake")
    skip.append("limit = last_progress + 200_001")
    skip.append("if target is None or target > limit:")
    skip.append("    target = limit")
    if II:
        skip.append("if next_interrupt < target:")
        skip.append("    target = next_interrupt")
    skip.append(f"if target > {MAXC + 1}:")
    skip.append(f"    target = {MAXC + 1}")
    skip.append("if on_cycle is not None:")
    skip.append("    # stop at the next hook boundary: it runs as a real cycle")
    skip.append("    _boundary = cycle + interval - cycle % interval")
    skip.append("    if _boundary < target:")
    skip.append("        target = _boundary")
    skip.append("skipped = target - cycle - 1")
    skip.append("if skipped <= 0:")
    skip.append("    continue")
    skip.append("if not fetch_queue:")
    skip.append("    fetch_account_idle(cycle + 1, target - 1)")
    skip.append("elif rename_stall == 1:")
    skip.append("    stats.rename_stall_rob += skipped")
    skip.append("elif rename_stall == 2:")
    skip.append("    stats.rename_stall_iq += skipped")
    skip.append("elif rename_stall == 3:")
    skip.append("    stats.rename_stall_lsq += skipped")
    skip.append("else:")
    skip.append("    stats.rename_stall_regs += skipped")
    skip.append("occ_rob += skipped * len(rob_entries)")
    skip.append("occ_iq += skipped * iq._size")
    skip.append(f"occ_free += skipped * {free_expr}")
    skip.append("occ_samples += skipped")
    skip.append("proc.cycles_skipped += skipped")
    skip.append("cycle = target - 1")
    skip.append("proc.cycle = cycle")
    B.append(_reindent("\n".join(skip), "        "))

    L.append("    try:")
    L.append(_shift("\n".join(B)))
    L.append("    finally:")
    L.append(_reindent(_FLUSH, "        "))
    L.append("")

    return "\n".join(L) + "\n"
