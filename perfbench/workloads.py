"""The benchmark's four workloads: inputs, operations and output checks.

Every workload is a closed loop: one client issues an operation, waits for
it, checks it, then issues the next. Inputs come from the seed alone; the
package sees only the generated inputs. Each workload provides

    prepare(seed)             input generation (not timed)
    setup(rr, tr, data)       program calls made before the first timed op
    inputs(data, seed)        endless iterator of ops
    trace_inputs(data, seed)  the fixed op list of a traced run
    golden_inputs(data)       every op the goldens cover (None: no goldens)
    run(rr, st, op, tr, pause)  one timed operation: program calls only
    check(rr, st, data, op, out, golden)  None when correct, else a problem
    known_failure(op, exc)    True for the one exception an op may raise
    counts(rr, st, data, op, out)  exact work counts of one operation
                              (out is None when it raised)
    spans                     the layer spans a traced run must record

where ``rr`` is the package module, ``tr`` a tracer (see tracing.py)
that wraps a span around each call into a layer, and ``pause`` a callable
that a long operation calls between its steps; the runner measures the
host's speed there, outside the operation's timed region.
"""

import hashlib
import json
from collections import Counter, namedtuple
from itertools import count, islice, product
from random import Random
from types import SimpleNamespace

POOL_SEED = 1  # the seed the golden-covered input pools are drawn with
SAMPLES = 500  # the CLI's default sample count

# Clause shapes of the catalogue: (K, phi), (K, K', phi) and (K, phi, psi).
KF = {"K1", "K2", "K3", "K4", "K5", "K6", "K9_1", "K9_2"}
KKF = {"K9", "U8", "U8_1", "U8_2", "P_KM1", "P_K9U81"}
# Rank-induced revisions satisfy every clause except these (the paper's
# impossibility results); U8_1 is guaranteed to fail in exhaustive mode.
EXPECTED_TO_FAIL = {"U8", "U8_1", "C2"}
# The clauses the 3-atom exhaustive caps admit at the seed, fixed so a
# later change of the caps does not change the workload.
SWEEP3_IDS = ("K1", "K2", "K3", "K4", "K5", "K6", "K9", "K9_1", "K9_2",
              "U8", "U8_1", "U8_2", "P_KM1", "P_K9U81")
SWEEP3_COUNT = 545835  # normalized rank functions at 3 atoms
SWEEP3_POOL = 8  # enumeration indices the goldens cover
SAMPLED4_POOL = 1024  # random_rank_function inputs the goldens cover

# A run ends on a whole ``window`` of ops, one full cycle of the
# workload's input mix; ops_per_s is the median over its windows.
# ``unit`` marks ops that count as one rank function or one query in
# ops_per_s and give a latency sample.
Op = namedtuple("Op", "pos kind key payload unit")


def shape(name):
    return "kf" if name in KF else "kkf" if name in KKF else "kff"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rank_text(atoms, levels):
    """Rank-file text; ``levels`` lists the valuations of each level."""
    n = len(atoms)
    lines = ["atoms: " + " ".join(atoms)]
    for i, vals in enumerate(levels):
        lines.append(f"{i}: " + " ".join(format(v, f"0{n}b") for v in vals))
    return "\n".join(lines) + "\n"


def levels_of(ranks):
    """Valuations grouped by rank, lowest first (ranks relabelled 0..h)."""
    order = sorted(range(len(ranks)), key=ranks.__getitem__)
    levels, last = [], None
    for v in order:
        if ranks[v] != last:
            levels.append([])
            last = ranks[v]
        levels[-1].append(v)
    return levels


def mask_of(valuations, size):
    bits = bytearray(size // 8 or 1)
    for v in valuations:
        bits[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(bits, "little")


def binding(v):
    """A violation's bindings as [K, K', phi, psi] masks (None where unbound)."""
    return [
        v.k.models.mask,
        None if v.kprime is None else v.kprime.models.mask,
        v.phi.mask,
        None if v.psi is None else v.psi.mask,
    ]


def suite(rr, rv, names, tr, mode="exhaustive", seed=None, pause=None):
    """run_suite. Traced runs, and runs that pause between clauses, call
    check_postulate per clause instead, which is the same work; each
    clause shape then gets its own span."""
    ids = [rr.PostulateId[n] for n in names]
    if not tr.enabled and pause is None:
        return rr.run_suite(rv, ids, mode=mode, seed=seed, samples=SAMPLES)
    sampled = mode == "sampled"
    results = []
    for pid in rr.PostulateId:
        if pid in ids:
            span = "postulates.sampled" if sampled else "postulates." + shape(pid.name)
            results.append((pid, tr.call(span, rr.check_postulate, rv, pid,
                                         mode=mode, seed=seed, samples=SAMPLES)))
            if pause is not None:
                pause()
    return rr.SuiteReport(
        sig=rv.sig, mode=mode, seed=seed if sampled else None,
        samples=SAMPLES if sampled else None,
        domain_size=rv.sig.universe_mask + 1, results=tuple(results),
    )


def suite_outcome(report):
    return {
        "verdicts": "".join("." if v is None else "F" for _, v in report.results),
        "violations": {p.name: binding(v) for p, v in report.results if v is not None},
    }


def suite_problem(report, replays, exhaustive):
    """Invariants that hold on every seed; ``replays`` holds the replay
    result of each violation."""
    if not all(replays):
        return "a violation does not replay"
    for pid, v in report.results:
        if v is not None and pid.name not in EXPECTED_TO_FAIL:
            return f"{pid.name} fails at {binding(v)}"
        if v is None and exhaustive and pid.name == "U8_1":
            return "U8_1 passes"
    return None


def suite_counts(report):
    """Bindings decided per clause shape: the whole domain for a pass, the
    witness's lexicographic position + 1 for a fail."""
    n = report.domain_size
    counts = Counter()
    for pid, v in report.results:
        sh = shape(pid.name)
        if v is None:
            decided = n ** (2 if sh == "kf" else 3)
        else:
            k, kp, phi, psi = binding(v)
            if sh == "kf":
                decided = 1 + k * n + phi
            elif sh == "kkf":
                decided = 1 + (k * n + kp) * n + phi
            else:
                decided = 1 + (k * n + phi) * n + psi
        counts[f"postulates.{sh}_bindings"] += decided
        counts["postulates.violations"] += v is not None
    return counts


def golden_problem(golden, op, outcome):
    """Goldens map each op key of a workload's input pool to its outcome."""
    if golden is None:
        return None
    if op.key not in golden:
        return "no golden for this input"
    return None if golden[op.key] == outcome else "differs from golden"


class Workload:
    """What the four workloads share: a traced run takes the first
    ``trace_ops`` inputs, and no exception is expected."""

    def trace_inputs(self, data, seed):
        return list(islice(self.inputs(data, seed), self.trace_ops))

    def known_failure(self, op, exc):
        return False


class Sweep2(Workload):
    """`rankedrev check --postulates all --json` on all 75 rank functions at
    2 atoms, each arriving as rank-file text, plus the violation replays,
    both impossibility witnesses and, once per pass, the 16-anchor
    under-determination scan."""

    name = "sweep2"
    min_ops = 1
    window = 76  # one pass: the scan and the 75 functions
    trace_ops = 76
    spans = {"logic.signature", "ranking.parse_rank_file", "postulates.kf",
             "postulates.kkf", "postulates.kff", "render.report_json",
             "postulates.replay", "postulates.witness", "postulates.scan"}

    def prepare(self, seed):
        return [r for r in product(range(4), repeat=4) if set(r) == set(range(max(r) + 1))]

    def setup(self, rr, tr, data):
        sig = tr.call("logic.signature", rr.Signature, ("p", "q"))
        return SimpleNamespace(sig=sig, names=[p.name for p in rr.PostulateId])

    def inputs(self, data, seed):
        rng = Random(seed)
        while True:
            yield Op(0, "scan", "16 anchors", None, False)
            order = data[:]
            rng.shuffle(order)
            for i, r in enumerate(order, 1):
                yield Op(i, "function", "".join(map(str, r)),
                         rank_text(("p", "q"), levels_of(r)), True)

    def golden_inputs(self, data):
        return list(islice(self.inputs(data, POOL_SEED), self.window))

    def run(self, rr, st, op, tr, pause):
        if op.kind == "scan":
            found = []
            for km in range(16):
                try:
                    found.append(tr.call("postulates.scan", rr.dynamic_underdetermination,
                                         st.sig, rr.Theory(rr.PropSet(st.sig, km))))
                except rr.WitnessNotFoundError:
                    found.append(None)
            return found
        r = tr.call("ranking.parse_rank_file", rr.parse_rank_file, op.payload)
        rv = rr.RankedRevision(r)
        report = suite(rr, rv, st.names, tr)
        records = tr.call("render.report_json", report.to_json_records)
        text = json.dumps(records, indent=2)
        replays = [tr.call("postulates.replay", v.replay, rv) for v in report.violations]
        witnesses = [tr.call("postulates.witness", rr.find_impossibility_witness, rv, t)
                     for t in rr.ImpossibilityTarget]
        return rv, report, text, replays, witnesses

    def outcome(self, op, out):
        if op.kind == "scan":
            return [None if w is None else [list(w.first.ranks), list(w.second.ranks),
                                             w.psi.mask, w.phi.mask] for w in out]
        rv, report, text, replays, witnesses = out
        return {**suite_outcome(report), "json": digest(text),
                "witnesses": [binding(w) for w in witnesses]}

    def check(self, rr, st, data, op, out, golden):
        problem = golden_problem(golden, op, self.outcome(op, out))
        if problem or op.kind == "scan":
            return problem
        rv, report, _, replays, witnesses = out
        if not all(w.replay(rv) for w in witnesses):
            return "an impossibility witness does not replay"
        return suite_problem(report, replays, exhaustive=True)

    def counts(self, rr, st, data, op, out):
        return Counter() if op.kind == "scan" or out is None else suite_counts(out[1])


class Sweep3(Workload):
    """3-atom rank functions from a pool of enumerate_rank_functions indices
    (drawn with POOL_SEED; the run's seed orders them): the full revision
    table, the 14 clauses of SWEEP3_IDS exhaustively, and check_rationality
    of the bottom-row relation."""

    name = "sweep3"
    min_ops = 1
    window = 1
    trace_ops = 1
    spans = {"logic.signature", "ranking.enumerate", "revision.table", "postulates.kf",
             "postulates.kkf", "relations.rationality"}

    def prepare(self, seed):
        return None

    def setup(self, rr, tr, data):
        sig = tr.call("logic.signature", rr.Signature, ("p", "q", "r"))
        funcs = tr.call("ranking.enumerate", list, rr.enumerate_rank_functions(sig))
        if len(funcs) != SWEEP3_COUNT:
            raise RuntimeError(f"enumerated {len(funcs)} rank functions, not {SWEEP3_COUNT}")
        return SimpleNamespace(sig=sig, funcs=funcs)

    def golden_inputs(self, data):
        rng = Random(POOL_SEED)
        return [Op(pos, "function", f"enumeration index {i}", i, True)
                for pos, i in enumerate(rng.randrange(SWEEP3_COUNT) for _ in range(SWEEP3_POOL))]

    def inputs(self, data, seed):
        pool = self.golden_inputs(data)
        Random(seed).shuffle(pool)
        for pos in count():
            yield pool[pos % len(pool)]._replace(pos=pos)

    def run(self, rr, st, op, tr, pause):
        # One function takes seconds, so the op pauses between its steps.
        rv = rr.RankedRevision(st.funcs[op.payload])
        tr.call("revision.table", rv.table)
        pause()
        report = suite(rr, rv, SWEEP3_IDS, tr, pause=pause)
        rel = tr.call("revision.relation_of_revision", rr.relation_of_revision,
                      rv, rr.Theory.bottom(st.sig))
        rationality = tr.call("relations.rationality", rr.check_rationality, rel)
        return rv, report, rationality

    def outcome(self, op, out):
        rv, report, rationality = out
        return {"ranks": "".join(map(str, rv.rank.ranks)), **suite_outcome(report),
                "rationality_failed": list(rationality.failed)}

    def check(self, rr, st, data, op, out, golden):
        problem = golden_problem(golden, op, self.outcome(op, out))
        if problem:
            return problem
        rv, report, rationality = out
        if not rationality.all_pass:
            return f"rational properties fail: {rationality.failed}"
        return suite_problem(report, [v.replay(rv) for v in report.violations],
                             exhaustive=True)

    def counts(self, rr, st, data, op, out):
        return Counter() if out is None else suite_counts(out[1])


class Sampled4(Workload):
    """4-atom rank functions from random_rank_function (levels cycle through
    1..16), each checked on all 25 clauses in sampled mode with 500 samples;
    violations are replayed and rendered as JSON records. The inputs form a
    pool drawn with POOL_SEED; the run's seed picks where in it to start."""

    name = "sampled4"
    min_ops = 1
    window = 16  # one cycle of levels 1..16
    trace_ops = 64
    spans = {"logic.signature", "ranking.random_rank", "ranking.consequence_table",
             "postulates.sampled", "render.report_json", "postulates.replay"}

    def prepare(self, seed):
        return None

    def setup(self, rr, tr, data):
        sig = tr.call("logic.signature", rr.Signature, ("p", "q", "r", "s"))
        return SimpleNamespace(sig=sig, names=[p.name for p in rr.PostulateId])

    def golden_inputs(self, data):
        rng = Random(POOL_SEED)
        pool = []
        for pos in range(SAMPLED4_POOL):
            levels, rank_seed, suite_seed = 1 + pos % 16, rng.getrandbits(32), rng.getrandbits(32)
            pool.append(Op(pos, "function",
                           f"random_rank_function(levels={levels}, seed={rank_seed}), "
                           f"suite seed {suite_seed}", (levels, rank_seed, suite_seed), True))
        return pool

    def inputs(self, data, seed):
        pool = self.golden_inputs(data)
        start = self.window * Random(seed).randrange(len(pool) // self.window)
        for pos in count():
            yield pool[(start + pos) % len(pool)]._replace(pos=pos)

    def run(self, rr, st, op, tr, pause):
        levels, rank_seed, suite_seed = op.payload
        r = tr.call("ranking.random_rank", rr.random_rank_function, st.sig, levels, rank_seed)
        rv = rr.RankedRevision(r)
        # The sampled clauses build this table on their first severe
        # revision anyway; the traced run builds it first to time it.
        if tr.enabled:
            tr.call("ranking.consequence_table", rv.consequence_masks)
        report = suite(rr, rv, st.names, tr, mode="sampled", seed=suite_seed)
        records = tr.call("render.report_json", report.to_json_records)
        text = json.dumps(records, indent=2)
        replays = [tr.call("postulates.replay", v.replay, rv) for v in report.violations]
        return rv, report, text, replays

    def outcome(self, op, out):
        rv, report, text, _ = out
        return {"ranks": "".join(format(x, "x") for x in rv.rank.ranks),
                **suite_outcome(report), "json": digest(text)}

    def check(self, rr, st, data, op, out, golden):
        problem = golden_problem(golden, op, self.outcome(op, out))
        if problem:
            return problem
        return suite_problem(out[1], out[3], exhaustive=False)

    def counts(self, rr, st, data, op, out):
        return Counter({"postulates.violations": 0 if out is None else len(out[1].violations)})


# --- query16 ---------------------------------------------------------------

ATOMS16 = tuple("pqrstuvwxyzabcde")
LEVELS16 = (2, 9, 16)  # one session per entry; the seed fills the levels
# The query kinds in order; with 3 sessions the mix repeats every 30
# queries. Six in ten take well under a millisecond, two are severe and
# two are 16-atom default consequences, the slowest. So p50 falls inside
# the fast group (at about its 83rd percentile) and p90 in the middle of
# the consequence group, away from the edges where one group's times meet
# the next.
QUERY_PATTERN = ("revise_mild", "consequence", "iterate_mild", "revise_severe",
                 "revise_mild", "iterate_mild", "consequence", "iterate_severe",
                 "revise_mild", "iterate_mild")
QUERY_PERIOD = 30


def formula(conn, lits):
    """A formula as (text, connective, literals); literals are (atom, positive)."""
    text = f" {conn} ".join(("" if pos else "!") + ATOMS16[a] for a, pos in lits)
    return text, conn, tuple(lits)


class Query16(Workload):
    """Library sessions at 16 atoms, as in the README's library sketch:
    revisions, default consequences and 3-step iterated revisions,
    round-robin over sessions loaded from rank files."""

    name = "query16"
    min_ops = 100  # p90 then has at least 10 samples beyond it
    window = QUERY_PERIOD  # one period of the query mix
    trace_ops = 4 * QUERY_PERIOD
    spans = {"logic.signature", "ranking.parse_rank_file", "logic.parse_formula",
             "logic.models_of", "ranking.consequences_of", "revision.revise_mild",
             "revision.revise_severe", "revision.iterate"}

    def __init__(self):
        size = 1 << 16
        self.universe = (1 << size) - 1
        self.atom_masks = []
        for i in range(16):
            half = 1 << (15 - i)  # valuation bit of atom i; atom 0 is the most significant
            m, width = ((1 << half) - 1) << half, 2 * half
            while width < size:
                m |= m << width
                width *= 2
            self.atom_masks.append(m)

    def prepare(self, seed):
        rng = Random(seed)
        sessions = []
        for levels in LEVELS16:
            by_level = levels_of([rng.randrange(levels) for _ in range(1 << 16)])
            sessions.append(SimpleNamespace(
                text=rank_text(ATOMS16, by_level),
                level_masks=[mask_of(vals, 1 << 16) for vals in by_level]))
        return SimpleNamespace(sessions=sessions)

    def setup(self, rr, tr, data):
        states = []
        for s in data.sessions:
            if tr.enabled:
                # parse_rank_file builds this Signature inside; only traced
                # runs build it once more, to time that share on its own.
                tr.call("logic.signature", rr.Signature, ATOMS16)
            rank = tr.call("ranking.parse_rank_file", rr.parse_rank_file, s.text)
            states.append(SimpleNamespace(rank=rank, rv=rr.RankedRevision(rank)))
        return states

    def inputs(self, data, seed):
        rng = Random(seed + 1_000_003)  # a stream apart from prepare()'s
        for pos in count():
            kind = QUERY_PATTERN[pos % len(QUERY_PATTERN)]
            atoms = rng.sample(range(16), 7)
            lits = [(a, rng.random() < 0.5) for a in atoms]
            k = formula("&", lits[:3])
            flip = lits[rng.randrange(3)]
            neg = (flip[0], not flip[1])
            if kind == "consequence":
                payload = (formula("|", [(atoms[3], True), lits[4]]), formula("|", lits[5:7]))
            elif kind.startswith("revise"):
                phi = formula("|", lits[3:5]) if kind == "revise_mild" else formula("&", [neg, lits[3]])
                payload = (k, phi, formula("&", [flip]), formula("|", lits[5:7]))
            else:
                last = lits[6] if kind == "iterate_mild" else neg
                payload = (k, (formula("&", [lits[3]]), formula("|", lits[4:6]), formula("&", [last])))
            shown = [k, *payload[1]] if kind.startswith("iterate") else payload
            key = f"session {pos % len(LEVELS16)} {kind}: " + " ; ".join(f[0] for f in shown)
            yield Op(pos, kind, key, payload, True)

    def golden_inputs(self, data):
        return None  # checked against the min-rank oracle instead

    def known_failure(self, op, exc):
        """At the seed, every severe revision at 16 atoms raises OverflowError."""
        return isinstance(exc, OverflowError) and op.kind in ("revise_severe", "iterate_severe")

    def run(self, rr, st, op, tr, pause):
        s = st[op.pos % len(st)]
        sig = s.rank.sig

        def models(f):
            return tr.call("logic.models_of", rr.models_of,
                           tr.call("logic.parse_formula", rr.parse_formula,
                                   f[0], sig), sig)

        if op.kind == "consequence":
            phi, psi = op.payload
            theory = tr.call("ranking.consequences_of", rr.consequences_of, s.rank, models(phi))
            return theory, tr.call("logic.theory_contains", rr.theory_contains, theory, models(psi))
        if op.kind.startswith("revise"):
            k, phi, *probes = op.payload
            k, f = rr.Theory(models(k)), models(phi)
            severity = rr.severity_of(k, f)
            new = tr.call("revision.revise_" + severity.value, s.rv.revise, k, f)
            return severity, new, [tr.call("logic.theory_contains", rr.theory_contains,
                                           new, models(p)) for p in probes]
        k, fs = op.payload
        return tr.call("revision.iterate", rr.iterate, s.rv, rr.Theory(models(k)),
                       [models(f) for f in fs])

    def oracle_mask(self, f):
        _, conn, lits = f
        masks = [m if pos else self.universe ^ m
                 for m, pos in ((self.atom_masks[a], pos) for a, pos in lits)]
        out = masks[0]
        for m in masks[1:]:
            out = out & m if conn == "&" else out | m
        return out

    @staticmethod
    def min_rank(session, f):
        """Min-rank models of f: the first level, by sorted rank, meeting f."""
        for level in session.level_masks:
            if level & f:
                return level & f
        return 0

    def revise_oracle(self, session, k, f):
        meet = k & f
        return (meet or self.min_rank(session, f)), ("mild" if meet else "severe")

    def check(self, rr, st, data, op, out, golden):
        session = data.sessions[op.pos % len(data.sessions)]
        om = self.oracle_mask
        if op.kind == "consequence":
            phi, psi = op.payload
            theory, holds = out
            want = self.min_rank(session, om(phi))
            if theory.models.mask != want or holds != ((want | om(psi)) == om(psi)):
                return "consequence differs from the min-rank oracle"
            return None
        if op.kind.startswith("revise"):
            k, phi, *probes = op.payload
            severity, new, holds = out
            want, want_severity = self.revise_oracle(session, om(k), om(phi))
            want_holds = [(want | om(p)) == om(p) for p in probes]
            if (new.models.mask, severity.value, holds) != (want, want_severity, want_holds):
                return "revision differs from the min-rank oracle"
            return None
        k, fs = op.payload
        current = om(k)
        if len(out) != len(fs):
            return "iterate returned the wrong number of steps"
        for step, f in zip(out, fs):
            current, severity = self.revise_oracle(session, current, om(f))
            if (step.after.models.mask, step.severity.value) != (current, severity):
                return "iterate differs from the min-rank oracle"
        return None

    def counts(self, rr, st, data, op, out):
        """Every revision a query asks for, directly or as an iterate step,
        classified by severity_of on the oracle's theories; counted also
        when the query fails."""
        if op.kind == "consequence":
            return Counter()
        session = data.sessions[op.pos % len(data.sessions)]
        sig = st[op.pos % len(st)].rank.sig
        k, fs = (op.payload[0], op.payload[1:2]) if op.kind.startswith("revise") else op.payload
        counts = Counter()
        current = self.oracle_mask(k)
        for f in fs:
            fm = self.oracle_mask(f)
            severity = rr.severity_of(rr.Theory(rr.PropSet(sig, current)), rr.PropSet(sig, fm))
            counts[f"revision.{severity.value}_calls"] += 1
            current, _ = self.revise_oracle(session, current, fm)
        return counts


WORKLOADS = {w.name: w for w in (Sweep2, Sweep3, Sampled4, Query16)}
