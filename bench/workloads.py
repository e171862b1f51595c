"""The benchmark workloads.

A workload has three steps.  `setup(lib, seed, root)` builds its inputs
(timed into `setup_s`).  `run_pass(lib, state, sample, tracer)` is the
timed region: it calls `sample()` between its timed units (see run.Run) and
returns the time of each unit and the raw outputs.
`check(lib, state, outputs, first)` runs after the timed region and returns
(attempted, failed) for that pass.  A wrong output, a disagreement between
the two routes and an exception all count as a failed operation; nothing a
pass does stops the run.

Why each workload exists is recorded in bench/NOTES.md.
"""

from __future__ import annotations

import io
import random
import sys
import time
import traceback

import gen

# reference samples on each side of a one-command pass (see run.Run)
REFERENCE_SAMPLES = 6

GOLDEN_OUT = "tests/goldens/cli/classify_zero01.out"
GOLDEN_EXIT = "tests/goldens/cli/classify_zero01.exit"
Z_INPUT = "data/z_zero_01.json"


def _report(exc):
    """Print one failure to stderr; the run goes on."""
    print("operation failed:", "".join(traceback.format_exception(exc)).rstrip(),
          file=sys.stderr)


# ---------------------------------------------------------------------------
# census_gf5_z01_v01 and census_gf5_z01_v01_jobs2
# ---------------------------------------------------------------------------

class Census:
    """The golden `zinbiel2 classify` run in-process through cli.main.

    One operation is one classify command; its stdout and exit code must be
    byte-identical to the golden files.
    """

    default_seed = 1

    def __init__(self, jobs):
        self.jobs = jobs

    def setup(self, lib, seed, root):
        return {
            "argv": ["classify", "--field", "gf5", "--z", str(root / Z_INPUT),
                     "--vdims", "0,1", "--jobs", str(self.jobs)],
            "out": (root / GOLDEN_OUT).read_text(),
            "exit": int((root / GOLDEN_EXIT).read_text()),
        }

    def run_pass(self, lib, state, sample, tracer=None):
        buf = io.StringIO()
        # one command is the only unit: reference samples on both sides
        for _ in range(REFERENCE_SAMPLES):
            sample()
        t0 = time.perf_counter()
        try:
            rc = lib.cli.main(state["argv"], out=buf)
        except Exception as exc:  # counted as a failed operation
            rc = exc
        elapsed = time.perf_counter() - t0
        for _ in range(REFERENCE_SAMPLES):
            sample()
        return [elapsed], (rc, buf.getvalue())

    def check(self, lib, state, outputs, first):
        rc, text = outputs
        if isinstance(rc, Exception):
            _report(rc)
            return 1, 1
        ok = rc == state["exit"] and text == state["out"]
        if not ok:
            print(f"classify output differs from the golden (exit {rc})", file=sys.stderr)
        return 1, 0 if ok else 1


# ---------------------------------------------------------------------------
# verify_mix_gf5
# ---------------------------------------------------------------------------

# Densities rotate through the stream instead of being drawn at random, so
# every seed gets the same mix of sparse and dense inputs.
DENSITIES = (0.1, 0.3, 0.6)


def _verify_datum(lib, d):
    # as `zinbiel2 check-datum`: the oracle (with the Z check), then Z1..Z120
    direct = lib.unified.check_datum_direct(d)
    conds = lib.unified.check_datum_conditions(d, check_z=False)
    return conds.ok, direct.ok


def _verify_zz(lib, d):
    conds = lib.unified.check_trivial_z1_conditions(d)
    direct = lib.unified.check_datum_direct(d, check_z=False)
    return conds.ok, direct.ok


def _verify_cz(lib, cs):
    conds = lib.special.check_crossed_system(cs)
    direct = lib.core.check_crossed_module(lib.special.build_crossed_product(cs))
    return conds.ok, direct.ok


def _verify_bz(lib, mp):
    conds = lib.special.check_matched_pair(mp)
    direct = lib.core.check_crossed_module(lib.special.build_bicrossed_product(mp))
    return conds.ok, direct.ok


def _verify_rs(lib, triple):
    rs, d1, d2 = triple
    conds = lib.classify.check_rs_conditions(rs, d1, d2)
    direct = lib.classify.check_rs_direct(rs, d1, d2)
    return conds.ok, direct.ok


def _verify_recon(lib, split):
    # every ambient is valid by construction, so psi must be an isomorphism
    datum = lib.unified.extract_datum(split)
    return lib.unified.verify_psi(split, datum).ok, True


_VERIFIERS = {"datum": _verify_datum, "zz": _verify_zz, "cz": _verify_cz,
              "bz": _verify_bz, "rs": _verify_rs, "recon": _verify_recon}


class VerifyMix:
    """A seeded stream of single-object verifications, kinds in rotation.

    One operation is one item, run through both routes with full reports.
    """

    default_seed = 2
    rotations = 170
    # The general check-datum case comes twice in each rotation of the six
    # kinds.  With seven slots the median item is a CZ item; with six it
    # would fall in the latency gap between the ZZ and CZ items, where
    # op_p50_ref jumps with the slightest shift.
    rotation = ("datum", "zz", "cz", "bz", "rs", "recon", "datum")
    # about ten reference samples per pass, as for the orbit groups
    sample_every = 119

    def setup(self, lib, seed, root):
        rng = random.Random(seed)
        f5 = lib.fields.PrimeField(5)
        f7 = lib.fields.PrimeField(7)
        z01 = lib.core.ZinbielTwoAlgebra.shell(lib.core.ZinbielAlgebra.zero(f5, 1))

        def datum(dens):
            z, v = gen.random_z_v_1111(lib, f5, rng)
            return gen.sparse_datum(lib, z, v, rng, dens)

        def zz(dens):
            v = lib.linalg.TwoVectorSpace(1, 1, gen.scalar_linmap(lib, f5, rng))
            return gen.sparse_datum(lib, z01, v, rng, dens)

        def rs(dens):
            z, v = gen.random_z_v_1111(lib, f5, rng)
            d1 = gen.sparse_datum(lib, z, v, rng, dens)
            d2 = d1 if rng.random() < 0.25 else gen.sparse_datum(lib, z, v, rng, dens)
            return gen.random_rs_1111(lib, f5, rng), d1, d2

        make = {
            "datum": datum, "zz": zz, "rs": rs,
            "cz": lambda dens: gen.crossed_system_1111(lib, f5, rng, dens),
            "bz": lambda dens: gen.matched_pair_1111(lib, f5, rng, dens),
            # sparser data keep the rejection sampling of a valid datum short
            "recon": lambda dens: gen.ambient_with_subalgebra(lib, f7, rng, dens / 4),
        }
        items = []
        for n in range(self.rotations):
            dens = DENSITIES[n % len(DENSITIES)]
            items.extend((kind, make[kind](dens)) for kind in self.rotation)
        return {"items": items}

    def run_pass(self, lib, state, sample, tracer=None):
        lat, out = [], []
        clock = time.perf_counter
        for n, (kind, payload) in enumerate(state["items"]):
            if n % self.sample_every == 0:
                sample()
            if tracer is not None:
                tracer.item = n
            verify = _VERIFIERS[kind]
            t0 = clock()
            try:
                res = verify(lib, payload)
            except Exception as exc:  # counted as a failed operation
                res = exc
            lat.append(clock() - t0)
            out.append(res)
        return lat, out

    def check(self, lib, state, outputs, first):
        failed = 0
        for (kind, _), res in zip(state["items"], outputs):
            if isinstance(res, Exception):
                if first:
                    _report(res)
                failed += 1
            elif res[0] != res[1]:
                if first:
                    print(f"{kind}: catalog verdict {res[0]} != oracle verdict {res[1]}",
                          file=sys.stderr)
                failed += 1
        return len(outputs), failed


# ---------------------------------------------------------------------------
# orbits_gf5_1111
# ---------------------------------------------------------------------------

RELATIONS = ("equivalent", "cohomologous")


class Orbits:
    """compute_quotients under both relations on G groups of N distinct valid
    data, all over one fixed Z (zero 2-algebra at dims (1,1), phi = 0) and
    one fixed V ((1,1), d = 0) over GF(5).

    One operation is one pass: both quotients of every group.  Each group is
    a timed unit with a reference sample before it (see run.op_latencies).
    Many small groups rather than one large one spread the seed's effect
    over more data for the same number of pairs.  Failures are counted per
    quotient.
    """

    default_seed = 3
    groups = 9
    group_size = 5
    units_per_op = groups
    densities = (0.04, 0.08, 0.12)
    # orbit counts (equivalent, cohomologous) summed over the groups, for
    # the default seed
    pinned = (40, 45)

    def setup(self, lib, seed, root):
        rng = random.Random(seed)
        f = lib.fields.PrimeField(5)
        zero = lib.linalg.LinMap.zero(f, 1, 1)
        z = gen.zero_two_algebra(lib, f, 1, 1, zero)
        v = lib.linalg.TwoVectorSpace(1, 1, zero)
        groups, seen = [], set()
        for _ in range(self.groups):
            data = []
            while len(data) < self.group_size:
                dens = self.densities[len(data) % len(self.densities)]
                d = gen.sparse_datum(lib, z, v, rng, dens)
                if d not in seen and lib.unified.check_datum_direct(
                        d, first_only=True, check_z=False).ok:
                    seen.add(d)
                    data.append(d)
            groups.append(data)
        return {"groups": groups, "seed": seed}

    def run_pass(self, lib, state, sample, tracer=None):
        lat, out = [], []
        clock = time.perf_counter
        for n, data in enumerate(state["groups"]):
            sample()
            if tracer is not None:
                tracer.item = n
            parts = {}
            t0 = clock()
            for mode in RELATIONS:
                try:
                    parts[mode] = lib.classify.compute_quotients(data, mode=mode)
                except Exception as exc:  # counted as a failed operation
                    parts[mode] = exc
            lat.append(clock() - t0)
            out.append(parts)
        return lat, out

    def check(self, lib, state, outputs, first):
        failed = 0
        counts = [0, 0]
        for n, (data, parts) in enumerate(zip(state["groups"], outputs)):
            bad = self._check_group(lib, state, n, data, parts, first)
            failed += len(bad)
            if not bad:
                counts[0] += len(parts["equivalent"].orbits)
                counts[1] += len(parts["cohomologous"].orbits)
        if first and not failed and state["seed"] == self.default_seed:
            if tuple(counts) != self.pinned:
                print(f"orbit counts {tuple(counts)} != pinned {self.pinned}",
                      file=sys.stderr)
                failed += 1
        return len(RELATIONS) * len(outputs), failed

    def _check_group(self, lib, state, n, data, parts, first):
        """The relations whose quotient of group n is wrong."""
        bad = set()
        for mode, part in parts.items():
            if isinstance(part, Exception):
                _report(part)
                bad.add(mode)
            elif sorted(i for orbit in part.orbits for i in orbit) != list(range(len(data))):
                print(f"group {n}, {mode}: orbits do not partition the data",
                      file=sys.stderr)
                bad.add(mode)
        if bad:
            return bad
        eq, coh = parts["equivalent"], parts["cohomologous"]
        eq_of = {i: k for k, orbit in enumerate(eq.orbits) for i in orbit}
        if any(len({eq_of[i] for i in orbit}) != 1 for orbit in coh.orbits):
            print(f"group {n}: the cohomologous relation does not refine equivalence",
                  file=sys.stderr)
            bad.add("cohomologous")
        partitions = state.setdefault("partitions", {})
        if first:
            partitions[n] = {mode: parts[mode].orbits for mode in RELATIONS}
            bad |= self._check_witnesses(lib, data, parts)
        else:
            for mode in RELATIONS:
                if parts[mode].orbits != partitions[n][mode]:
                    print(f"group {n}, {mode}: partition changed between passes",
                          file=sys.stderr)
                    bad.add(mode)
        return bad

    @staticmethod
    def _check_witnesses(lib, data, parts):
        """Every non-representative member has a witness to its representative
        that passes H1..H20; returns the relations where one does not."""
        bad = set()
        for mode, part in parts.items():
            for orbit in part.orbits:
                rep = min(orbit, key=lambda i: part.items[i])
                for i in orbit:
                    if i == rep:
                        continue
                    try:
                        found, rs = lib.classify.are_equivalent(
                            data[i], data[rep], mode=mode, check_valid=False)
                        ok = found and lib.classify.check_rs_conditions(
                            rs, data[i], data[rep]).ok
                        if mode == "equivalent":
                            ok = ok and rs.is_isomorphism_shape()
                    except Exception as exc:
                        _report(exc)
                        ok = False
                    if not ok:
                        print(f"{mode}: no valid witness from {i} to {rep}", file=sys.stderr)
                        bad.add(mode)
        return bad


WORKLOADS = {
    "census_gf5_z01_v01": Census(jobs=1),
    "verify_mix_gf5": VerifyMix(),
    "orbits_gf5_1111": Orbits(),
    "census_gf5_z01_v01_jobs2": Census(jobs=2),
}
