"""The rule catalog of the ``repro`` static-analysis suite.

Every check the suite can emit is declared here as data — a :class:`Rule`
with a stable code, a one-line summary and the rationale that earned it a
place in the gate — so the linter (:mod:`repro.devtools.linter`), the
registry cross-checker (:mod:`repro.devtools.schema_check`), the CLI
(``repro lint``) and the documentation (``docs/devtools.md``) all speak the
same vocabulary and none can drift from the others.

Codes are grouped by family:

* ``REP1xx`` — *determinism* rules, enforced by AST analysis over library
  source.  The platform's headline guarantee (bit-identical Monte-Carlo
  counts for any worker count and any kill/resume pattern, byte-identical
  reports) only holds while every stream of randomness is seeded and every
  iteration order is defined; these rules make the preconditions statically
  checkable instead of hoping a golden-fixture test catches the drift later.
* ``REP2xx`` — *registry schema* rules, enforced by introspecting every
  registered component's declared :class:`~repro.registry.Param` schema
  against its factory's real signature and the component documentation.
* ``REP3xx`` — *RNG provenance* rules, enforced by the whole-program flow
  analyzer (:mod:`repro.devtools.flow`, ``repro lint --flow``): values are
  tracked from the ``SeedSequence`` chokepoints through assignments,
  calls, returns and dataclass fields across module boundaries.
* ``REP4xx`` — *fabric/persistence protocol* rules, also interprocedural:
  explicit-``now`` broker mutators, atomic on-disk state transitions and
  the lease lifecycle order at every call site.

Suppression: append ``# repro: noqa[REP103]`` (or a comma-separated list,
or bare ``# repro: noqa`` for every rule) to the offending line.  For
pre-existing debt, a committed baseline file lets violations burn down
instead of blocking (see :mod:`repro.devtools.baseline`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Rule",
    "DETERMINISM_RULES",
    "SCHEMA_RULES",
    "FLOW_RULES",
    "ALL_RULES",
    "rule",
]


@dataclass(frozen=True)
class Rule:
    """One named check of the static-analysis suite.

    Attributes
    ----------
    code:
        Stable identifier (``"REP103"``); what ``noqa`` tags, baselines and
        ``--select`` refer to.
    name:
        Short kebab-case slug (``"unseeded-rng"``).
    summary:
        One-line description shown in listings and violation messages.
    rationale:
        Why violating this breaks reproducibility (or the schema contract).
    """

    code: str
    name: str
    summary: str
    rationale: str


DETERMINISM_RULES: tuple[Rule, ...] = (
    Rule(
        "REP101",
        "legacy-numpy-random",
        "legacy global numpy.random API call (np.random.seed/rand/...)",
        "The legacy API draws from hidden process-global state, so counts "
        "depend on import order and every other caller; only explicit "
        "Generator objects derived from SeedSequence keep shard streams "
        "independent and reproducible.",
    ),
    Rule(
        "REP102",
        "stdlib-random",
        "stdlib `random` module imported in library code",
        "The stdlib `random` module is another hidden global stream that the "
        "SeedSequence spawn tree cannot account for; all library randomness "
        "must flow through numpy Generators from repro.utils.rng.",
    ),
    Rule(
        "REP103",
        "unseeded-rng",
        "unseeded np.random.default_rng() / SeedSequence() constructed",
        "A generator seeded from OS entropy produces different counts every "
        "run; outside the explicitly whitelisted repro.utils.rng fallback, "
        "every generator must derive from an explicit seed or a spawned "
        "SeedSequence.",
    ),
    Rule(
        "REP104",
        "wall-clock",
        "wall-clock read (time.time, datetime.now, ...) in library code",
        "Wall-clock values leaking into seeds, filenames or stored metadata "
        "make artifacts differ between runs, which breaks byte-identical "
        "stores and reports; duration measurement belongs to "
        "time.perf_counter/monotonic, which the rule permits.",
    ),
    Rule(
        "REP105",
        "set-iteration",
        "iteration over a set/frozenset where order can reach results",
        "Set iteration order varies with insertion history and hash "
        "randomization; anything ordered that feeds results or serialized "
        "output must iterate a sorted() or otherwise deterministic sequence.",
    ),
    Rule(
        "REP106",
        "float-equality",
        "float literal compared with == or !=",
        "Exact float equality silently depends on rounding of the platform "
        "and optimization level; compare against a tolerance (math.isclose) "
        "or restructure the check.",
    ),
    Rule(
        "REP107",
        "non-atomic-write",
        "direct write (open('w'), Path.write_text) in persistence code",
        "The campaign store's kill/resume guarantee requires that readers "
        "never observe a partial file; persistence modules must write "
        "through repro.utils.files.atomic_write_text (temp file + rename).",
    ),
    Rule(
        "REP108",
        "unpicklable-pool-target",
        "lambda or nested function passed as a pool/executor target",
        "multiprocessing pickles pool targets by qualified name; a lambda or "
        "locally-defined function works under fork by accident and dies "
        "under the spawn start method (macOS/Windows), so targets must be "
        "picklable module-level callables.",
    ),
    Rule(
        "REP109",
        "ambient-entropy",
        "ambient entropy source (os.urandom, uuid.uuid4, secrets) used",
        "OS entropy taken outside the SeedSequence root makes results "
        "unreproducible by construction; derive randomness from the "
        "experiment seed and identifiers from the spec, never from entropy.",
    ),
    Rule(
        "REP110",
        "obs-clock-bypass",
        "direct time-module clock call inside repro.obs (bypasses clock.py)",
        "Telemetry timestamps must all flow through the audited "
        "repro.obs.clock chokepoint so the one file reading real clocks is "
        "reviewable in isolation; a perf_counter() or time() call elsewhere "
        "in repro.obs reintroduces unaudited clock reads — including the "
        "monotonic ones REP104 deliberately permits in simulation code.",
    ),
)

SCHEMA_RULES: tuple[Rule, ...] = (
    Rule(
        "REP201",
        "undeclared-builder-param",
        "declared Param not accepted by the builder's signature",
        "A schema parameter the builder cannot receive passes spec "
        "validation and then crashes inside a worker process at build time.",
    ),
    Rule(
        "REP202",
        "missing-required-param",
        "builder requires a parameter the schema does not declare required",
        "Spec validation would accept an incomplete spec and defer the "
        "failure to build time on a worker; the schema must front-load it.",
    ),
    Rule(
        "REP203",
        "default-mismatch",
        "declared Param default disagrees with the builder's default",
        "`components describe` and spec docs would promise one default while "
        "builds silently use another; the two must agree exactly.",
    ),
    Rule(
        "REP204",
        "choices-coverage",
        "a default value is not covered by the declared choices",
        "A default outside its own enumeration means either the choices or "
        "the default is wrong; specs relying on the default would fail "
        "validation.",
    ),
    Rule(
        "REP205",
        "undocumented-component",
        "registered component not documented in docs/components.md",
        "The components doc is the registry's user-facing contract; an "
        "undocumented registration is invisible to spec authors and rots.",
    ),
)

FLOW_RULES: tuple[Rule, ...] = (
    Rule(
        "REP301",
        "unprovenanced-generator",
        "Generator materialized whose seed has no SeedSequence provenance",
        "Bit-identical shard counts require every Generator to descend from "
        "the experiment's SeedSequence spawn tree; a generator built from a "
        "bare int, wall clock or untraceable value starts a stream the "
        "determinism story cannot account for.  The flow analyzer follows "
        "seeds across assignments, calls, returns and dataclass fields "
        "before flagging, so threading provenance through helpers is free.",
    ),
    Rule(
        "REP302",
        "conjured-rng",
        "function conjures its RNG from literals instead of a parameter",
        "A helper that hardcodes SeedSequence(1234) cannot take part in the "
        "spawn tree: every caller gets the same stream and campaign seeds "
        "stop reaching it.  RNG-consuming functions must accept provenance "
        "(an rng/seed parameter) and let the caller spawn it.",
    ),
    Rule(
        "REP303",
        "rng-dispatch-fanout",
        "one RNG object reaches several shard/worker dispatch sites",
        "Two shards fed the same Generator or SeedSequence draw identical "
        "streams, silently correlating Monte-Carlo counts that the "
        "statistics assume independent; each dispatch must carry its own "
        "spawned child.",
    ),
    Rule(
        "REP304",
        "captured-rng-state",
        "RNG state frozen into a default argument or captured by a closure",
        "A default argument evaluates once at def time — every call then "
        "shares (and advances) the same hidden stream; a closure smuggles "
        "generator state past the explicit seed-threading discipline.  "
        "Both break the rule that provenance is always visible in call "
        "signatures.",
    ),
    Rule(
        "REP401",
        "broker-wall-clock",
        "broker state mutator without explicit `now`, or reaching wall clock",
        "The fabric's chaos battery replays lease expiry, reclaim and "
        "backoff on a logical clock; a broker method that reads real time "
        "(directly or through any helper chain) or mutates state without "
        "an injected `now` cannot be replayed deterministically and "
        "escapes the fault-injection tests.",
    ),
    Rule(
        "REP402",
        "non-atomic-reach",
        "persistence code reaches a raw write through a helper chain",
        "REP107 only sees writes written *in* the persistence modules; "
        "kill/resume safety also requires that no helper they call "
        "performs a bare open()/write_text().  The interprocedural check "
        "closes the laundering loophole: on-disk state transitions go "
        "through repro.utils.files atomic helpers, whatever the call depth.",
    ),
    Rule(
        "REP403",
        "lease-lifecycle",
        "broker call sites violate submit→lease→heartbeat→complete order",
        "A module that heartbeats jobs it never leased, or leases jobs it "
        "never completes, defeats the TTL/reclaim accounting the fabric's "
        "exactly-once completion story depends on; consumers must drive "
        "the full lease lifecycle.",
    ),
)

#: Every rule of the suite, indexed by code.
ALL_RULES: dict[str, Rule] = {
    r.code: r for r in DETERMINISM_RULES + SCHEMA_RULES + FLOW_RULES
}


def rule(code: str) -> Rule:
    """The :class:`Rule` for ``code``; unknown codes raise ``KeyError``."""
    try:
        return ALL_RULES[code]
    except KeyError:
        raise KeyError(
            f"unknown rule code {code!r}; known: {sorted(ALL_RULES)}"
        ) from None
