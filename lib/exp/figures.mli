(** Regeneration of every table and figure of the paper's evaluation.

    Each function runs (or reuses) the needed tool-chain cells and renders
    a plain-text artifact shaped like the paper's: same rows, same series,
    same normalisations.  [run_all] concatenates everything in paper
    order. *)

val table1 : unit -> string
(** Table I — the four context-memory configurations. *)

val fig2 : unit -> string
(** Fig 2 — the motivation: per-tile context-word usage of the basic
    (context-unaware) mapping of matrix multiplication on HOM64, showing
    the hot load-store tiles and the waste elsewhere. *)

val fig5 : unit -> string
(** Fig 5 — per-basic-block pnop and move counts of the FFT kernel under
    the weighted traversal, normalised to the forward traversal. *)

val fig11 : unit -> string
(** Fig 11 — area breakdown of HOM64/HET1/HET2 against the CPU system. *)

val opt_report : unit -> string
(** Not in the paper: what the [cgra_opt] pipeline recovers from the
    naive lowering, per kernel — per-pass node statistics, then context
    usage / latency / binding attempts / energy of the raw vs optimized
    CDFG under the basic flow on all four configurations ("-" marks
    configurations the raw kernel does not even fit). *)

val search_report : unit -> string
(** Not in the paper: per-block beam-search telemetry of the full
    context-aware flow on HET2 — rounds, binding attempts, children
    generated, routing failures, ACMAP/ECMAP kills, stochastic-pruning
    survivors, finalisation failures, re-computations and population
    peak, plus per-kernel work and retry totals.  Deterministic effort
    counts only (no wall-clock), so it reproduces byte-for-byte on any
    host at any [--jobs]. *)

exception Artifact_error of { artifact : string; reason : string }
(** An artifact's precondition does not hold (e.g. a kernel the paper maps
    refuses to map) — a harness bug.  Registered with
    [Printexc.register_printer]. *)

val set_fault_trials : int -> unit
(** Trials per kernel used by {!fault_report} (default 120; clamped to
    >= 1) — how the bench [--trials] flag sizes the campaigns.  Call
    before rendering. *)

val set_protection : Cgra_arch.Protection.profile -> unit
(** Context-memory protection profile used by {!fault_report} (default
    {!Cgra_arch.Protection.none}) — the bench [--protect] flag.  Call
    before rendering; with the default, every artifact is byte-identical
    to the unprotected tool. *)

val fault_report : unit -> string
(** Not in the paper: per-kernel single-bit fault-injection campaigns
    ([Cgra_verify.Fault]) over the full context-aware flow on HET2 —
    injection counts per target (context memory, constant pool, register
    file) and outcome counts (masked / wrong-output / crash / hang).
    Under {!set_protection}, campaigns run through the ECC fetch path and
    the table gains detected / corrected columns; with protection off the
    output is byte-identical to the historical report.
    Deterministic: per-trial keyed RNG splits make the table byte-identical
    at any [--jobs] value and across reruns with the same seed. *)

val protection_report : unit -> string
(** Not in the paper: the pay-for-protection grid.  Per (kernel, Table-I
    configuration) cell of the full context-aware flow, one CM-only
    single-bit injection campaign per protection level (none / parity /
    secded) over the {e same} upset sites, tabulating masked / detected /
    corrected / escaped counts and the fault-free energy overhead of each
    level vs the unprotected run.  Uses {!set_fault_trials} for the
    per-cell trial count.  Deterministic at any [--jobs] value. *)

val set_repair_trials : int -> unit
(** Trials per (kernel, configuration) cell used by {!repair_report}
    (default 30; clamped to >= 1) — the bench [--trials] flag. *)

val set_repair_faults : int -> unit
(** Random permanent faults injected per trial (default 2; clamped to
    >= 1) — the bench [--faults] flag. *)

val set_repair_mode : Cgra_verify.Repair.mode -> unit
(** Remap strategy used by {!repair_report} (default
    [Cgra_verify.Repair.Full]) — the bench [--mode full|incremental]
    flag. *)

val repair_report : unit -> string
(** Not in the paper: permanent-fault survivability table over the
    [Cgra_verify.Repair] detect → diagnose → remap loop, per kernel and
    Table-I configuration under the full context-aware flow — counts of
    unaffected / repaired (with the incremental-remap subset in the
    [inc] column) / gave-up trials, the survivability fraction, and the
    mean cycle/energy overhead of the repaired mappings vs the pristine
    ones, plus one example repair trace.  Deterministic at any [--jobs]
    value; per-cell campaign wall-clock (host-dependent) is printed to
    stderr, never into the returned report. *)

val set_optimality_quick : bool -> unit
(** Shrink the {!optimality_report} grid to two kernels (FIR, FFT) on
    HOM64/HOM32 — the bench [--quick] flag, sized for CI smoke runs.
    Call before rendering. *)

val optimality_report : unit -> string
(** Not in the paper: the exact SAT backend ([Cgra_core.Exact]) re-maps
    every (kernel, configuration) cell of the full context-aware flow
    and the table lays its total context words, simulated cycles and
    energy next to the beam search's.  Cells the exact backend proves
    infeasible read "UNSAT under encoding" — a proof that no move-free
    mapping exists at any schedule length (DESIGN.md §5g), which the
    beam may still beat with move chains.  Every exact mapping is
    re-checked by the validator and against the golden model before it
    is tabulated.  Deterministic at any [--jobs] value. *)

val run_all : unit -> string
(** The paper set ({!artifacts}), concatenated in paper order. *)

val artifacts : (string * (unit -> string)) list
(** Name-to-renderer table of the paper artifacts, in {!run_all} order —
    the single source of truth for the drivers' artifact lookup. *)

val all_artifacts : (string * (unit -> string)) list
val artifact_names : string list
