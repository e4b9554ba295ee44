#!/usr/bin/env python3
"""Mutation runs: each listed mutation is applied to a scratch copy of the
workspace by anchored text replacement, then every test binary (or the
ones named) runs under `ulimit -v 4000000; timeout 90`, and the tests that
turned red and each binary's wall time are printed beside the tests the
mutation is known to turn red.

    scripts/mutations.py --check                # every anchor matches once; builds nothing
    scripts/mutations.py                        # every mutation, every test binary
    scripts/mutations.py 17 18 --bin native_mem_equiv --scratch /tmp/m

Numbers select mutations (0 runs the copy unmutated). The checkout is
never edited: the copy lives under `--scratch` (default
`$TMPDIR/foc-mutations`), keeps its own target directory, and is
refreshed file by file so that a later run rebuilds only what changed.
An anchor that matches no text or more than once stops the run.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NATIVE = "crates/foc-compiler/src/native.rs"
MACHINE = "crates/foc-vm/src/machine.rs"
BUILTINS = "crates/foc-vm/src/builtins.rs"
COST = "crates/foc-vm/src/cost.rs"
TABLE = "crates/foc-memory/src/table.rs"
CONN = "crates/foc-servers/src/conn.rs"
FARM = "crates/foc-servers/src/farm.rs"

GEN = "generated_programs_are_tier_blind"
REGIONS = "every_region_of_the_five_servers_passes_translation_validation"
IO_ALIKE = "an_io_wait_of_any_count_is_charged_alike_at_both_tiers"
LATTICE = "library_at_every_lattice_point"
FARMS = "farm_reports_are_edge_invariant_across_servers_and_modes"

# (number, what it breaks, [(file, anchor, replacement)], tests it turns red)
MUTATIONS = [
    (1, "Fold::propagate never finds a source stale",
     [(NATIVE, "            if stale {", "            if false && stale {")], [GEN]),
    (2, "a Load spills its own address register",
     [(NATIVE, "                seam,\n                spill: top,\n            },\n            Instr::Store",
       "                seam,\n                spill: top + 1,\n            },\n            Instr::Store")],
     [GEN]),
    (3, "in_range takes a same-width value of the other sign",
     [(NATIVE, "(m == size && m_signed == signed)", "(m == size)")], [GEN]),
    (4, "absorb charges one more",
     [(NATIVE, "        region.charge += charge;", "        region.charge += charge + 1;")], [GEN]),
    (5, "a flag tested == 0 keeps its compare",
     [(NATIVE, "if sense == CmpOp::Ne { op }", "if sense == CmpOp::Eq { op }")], [GEN]),
    (6, "a side exit's spent + 1",
     [(NATIVE, "spent: charge as u32,", "spent: charge as u32 + 1,")], [GEN]),
    (7, "a side exit refunds one more",
     [(MACHINE, "fuel += region.charge - spent as u64;", "fuel += region.charge - spent as u64 + 1;")],
     [GEN]),
    (8, "a fault seam refunds one more",
     [(MACHINE, "fuel += region.charge - seam.spent as u64;",
       "fuel += region.charge - seam.spent as u64 + 1;")], [GEN]),
    (9, "the chained-entry gate >= becomes > (moves work between tiers only)",
     [(MACHINE, "if fuel >= to.charge + next.skip as u64", "if fuel > to.charge + next.skip as u64")],
     []),
    (10, "a batch runs one pass more than its fuel",
     [(MACHINE, "fuel / region.charge)", "fuel / region.charge + 1)")], [GEN]),
    (11, "PtrInc writes the un-added pointer back",
     [(MACHINE, "view.local_put(off, AccessSize::B8, out);", "view.local_put(off, AccessSize::B8, p);")],
     [GEN]),
    (12, "clobbers ignores PtrInc",
     [(NATIVE, "            NOp::PtrInc { off: o, .. } => (o, AccessSize::B8),\n", "")],
     [GEN, REGIONS]),
    (13, "PtrInc's miss arm stores p instead of full!'s result",
     [(MACHINE, "None => full!(self.space.ptr_add(p, delta)),\n                        };\n"
                "                        view.local_put",
       "None => {\n                                full!(self.space.ptr_add(p, delta));\n"
       "                                p\n                            }\n                        };\n"
       "                        view.local_put")], [GEN]),
    (14, "the IoWait arm charges cycles but not io_cycles",
     [(MACHINE, "self.stats.add_io(cost::io(regs[at as usize]));",
       "self.stats.add_cycles(cost::io(regs[at as usize]));")], [GEN, IO_ALIKE]),
    (15, "CallBuiltin(PrintInt) lowers to IoWait",
     [(NATIVE, "Instr::CallBuiltin(b) => b != Builtin::IoWait,",
       "Instr::CallBuiltin(b) => !matches!(b, Builtin::IoWait | Builtin::PrintInt),"),
      (NATIVE, "| Instr::CallBuiltin(Builtin::IoWait) => (1, 0),",
       "| Instr::CallBuiltin(Builtin::IoWait | Builtin::PrintInt) => (1, 0),"),
      (NATIVE, "Instr::CallBuiltin(Builtin::IoWait) => NOp::IoWait { at: top },",
       "Instr::CallBuiltin(Builtin::IoWait | Builtin::PrintInt) => NOp::IoWait { at: top },")],
     [REGIONS, "exec_profile_is_inert_and_accounts_for_native_work"]),
    (16, "cost::io drops the negative-count clamp",
     [(COST, "(bytes.max(0) as u64)", "(bytes as u64)")],
     ["an_io_charge_", IO_ALIKE]),
    (17, "copy_span takes apart + 1 bytes",
     [(BUILTINS, ".min(apart));", ".min(apart + 1));")], [GEN]),
    (18, "store_bytes' span arm leaves each run's first byte unwritten",
     [(BUILTINS, "Fill::Byte(b) => out.fill(b),", "Fill::Byte(b) => out[1..].fill(b),")], [GEN]),
    (19, "strncpy does not pad",
     [(BUILTINS, "            store_bytes(m, a0 as u64, copied, n, Fill::Byte(0))?;\n",
       "            let _ = copied;\n")], ["libc_values_match_c"]),
    (20, "the flat table's upper bound skips a unit based at the address",
     [(TABLE, "partition_point(|p| p.base <= addr)", "partition_point(|p| p.base < addr)")],
     [LATTICE, FARMS]),
    (21, "the wire decodes every index one off",
     [(CONN, "Some(i64::from_le_bytes(field.try_into().ok()?))",
       "Some(i64::from_le_bytes(field.try_into().ok()?) ^ 1)")], [LATTICE, FARMS]),
    (22, "a resumed server draws one extra attack before its slice",
     [(FARM, "Task::Resume(run) => run,",
       "Task::Resume(mut run) => {\n            run.gen.draw_attack(config.attack_ratio);\n"
       "            run\n        }")], [FARMS]),
    (23, "a supervised restart charges no cycles",
     [(FARM, "stats.total_cycles += u64::from(attempts) * RESTART_COST_CYCLES;",
       "stats.total_cycles += u64::from(attempts);")],
     ["tail_attribution_splits_restart_overhead_from_service", "bounds_check_sendmail_farm_is_down"]),
]


def check_anchors():
    """Every anchor matches its file exactly once; returns the failures."""
    bad = []
    for number, _, edits, _ in MUTATIONS:
        for path, anchor, _ in edits:
            found = (ROOT / path).read_text().count(anchor)
            if found != 1:
                bad.append(f"({number}) {path}: anchor matches {found} times: {anchor!r}")
    return bad


def refresh(copy):
    """Copies every tracked or new file of the checkout into `copy`,
    writing only those whose bytes differ."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.split(b"\0")
    for name in filter(None, listed):
        src = ROOT / name.decode()
        if not src.is_file():
            continue
        dst = copy / name.decode()
        data = src.read_bytes()
        if not dst.exists() or dst.read_bytes() != data:
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(data)


def build(copy, target):
    """Builds every test binary; returns (name, executable, package dir)
    for each, or None when the build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    out = subprocess.run(
        ["cargo", "test", "--workspace", "--no-run", "--message-format=json"],
        cwd=copy, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        print(out.stderr[-3000:])
        return None
    binaries = []
    for line in out.stdout.splitlines():
        msg = json.loads(line) if line.startswith("{") else {}
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg.get("profile", {}).get("test"):
            binaries.append((msg["target"]["name"], msg["executable"],
                             str(Path(msg["manifest_path"]).parent)))
    return binaries


def run(binaries, names):
    """Runs each binary bounded; returns the red tests and prints times."""
    red = []
    for name, exe, cwd in binaries:
        if names and name not in names:
            continue
        start = time.monotonic()
        out = subprocess.run(
            ["bash", "-c", 'ulimit -v 4000000; exec timeout 90 "$0"', exe],
            cwd=cwd, capture_output=True, text=True, errors="replace")
        wall = time.monotonic() - start
        failed = [line.split()[1] for line in out.stdout.splitlines()
                  if line.startswith("test ") and line.rstrip().endswith("FAILED")]
        state = "timed out" if out.returncode == 124 else f"exit {out.returncode}"
        print(f"    {name}: {wall:.1f} s, {state}, {len(failed)} red")
        red += [f"{name}::{test}" for test in failed]
        if out.returncode == 124:
            red.append(f"{name} (timed out)")
    return red


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("numbers", nargs="*", type=int)
    parser.add_argument("--check", action="store_true", help="only check the anchors")
    parser.add_argument("--bin", action="append", default=[], help="run only these test binaries")
    parser.add_argument("--scratch", type=Path,
                        default=Path(tempfile.gettempdir()) / "foc-mutations")
    args = parser.parse_args()
    bad = check_anchors()
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        sys.exit(1)
    if args.check:
        print(f"{sum(len(m[2]) for m in MUTATIONS)} anchors of {len(MUTATIONS)} mutations match once")
        return
    copy, target = args.scratch / "src", args.scratch / "target"
    copy.mkdir(parents=True, exist_ok=True)
    refresh(copy)
    chosen = [m for m in [(0, "none", [], [])] + MUTATIONS
              if m[0] in args.numbers or not args.numbers and m[0] > 0]
    missed = []
    for number, what, edits, expected in chosen:
        print(f"({number}) {what}")
        saved = {}
        for path, anchor, replacement in edits:
            saved.setdefault(path, (copy / path).read_text())
            (copy / path).write_text((copy / path).read_text().replace(anchor, replacement))
        try:
            binaries = build(copy, target)
            red = run(binaries, set(args.bin)) if binaries is not None else ["(build failed)"]
        finally:
            for path, text in saved.items():
                (copy / path).write_text(text)
        print("    red: " + (", ".join(red) or "none"))
        # With `--bin`, a catcher may sit in a binary that did not run.
        for test in expected if not args.bin else []:
            if not any(test in r for r in red):
                missed.append(f"({number}) expected red: {test}")
                print(f"    MISSED: {test}")
    if missed:
        sys.exit(1)


if __name__ == "__main__":
    main()
