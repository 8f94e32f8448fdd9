(** Shared machinery of the experiment harness: runs (kernel x
    configuration x flow) cells through {!Cgra_verify.Chain} — mapping,
    assembly, independent validation, cycle-level simulation with
    functional check against the golden model, energy — and memoizes the
    results so every figure reuses them.

    The memo cache is thread-safe: {!run_of} and {!cpu_of} may be called
    from any number of domains concurrently (e.g. via {!warm}), and each
    cell is computed exactly once — concurrent requests for an in-flight
    cell block until the producing domain publishes it.

    Determinism: every cell's stochastic search runs on its own split of
    the SplitMix64 stream, keyed by (kernel, configuration, flow), so cell
    results are independent of evaluation order and of the number of
    domains — all artifacts are byte-identical at any [--jobs] value. *)

exception
  Failed of {
    kernel : string;
    target : string;  (** ["<config>/<flow>"], or ["cpu"] *)
    failure : Cgra_verify.Chain.failure;
  }
(** The chain refused a cell — an invalid artifact, a golden-model
    mismatch, a simulator error: a tool bug the harness refuses to report
    numbers from.  Cached and re-raised to every consumer of the cell.
    Registered with [Printexc.register_printer]. *)

(** Thread-safe single-flight memoisation, the machinery under {!run_of}
    and {!cpu_of}.  Exposed so the exception-safety contract is testable
    in isolation. *)
module Memo : sig
  type ('k, 'v) t

  val create : int -> ('k, 'v) t
  (** [create n] is an empty memo with initial capacity [n]. *)

  val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
  (** [get m key compute] returns the cached value for [key], computing it
      at most once no matter how many domains ask concurrently (waiters
      block until the claiming domain publishes).  A [compute] that raises
      publishes a cached failure: the exception is re-raised — with its
      original backtrace — to the computing caller and to {e every}
      past-and-future waiter of the key.  The claim is exception-safe
      ([Fun.protect]): an exception that cannot be cached (asynchronous
      interrupt between claim and publish) clears the slot instead of
      leaving a stale [Computing] marker, so the key recomputes rather
      than poisoning every later lookup. *)

  val computed : ('k, 'v) t -> int
  (** Computations claimed (not served from cache) since creation or the
      last {!reset} — failed computes included. *)

  val forget : ('k, 'v) t -> 'k -> unit
  (** Drop the cached value (or cached failure) for one key, so the next
      {!get} recomputes it.  An in-flight [Computing] slot is left
      untouched — removing it would strand the producer's publish and
      its waiters.  The seam the daemon uses to keep deadline-shaped
      outcomes ([Timed_out]) out of the permanent single-flight cache. *)

  val reset : ('k, 'v) t -> unit
  (** Drop all entries and zero {!computed}.  Safe to call while computes
      are in flight: the reset bumps an internal generation counter, so a
      pre-reset compute that later publishes (a value, a cached failure,
      or the async-exception slot clear) is discarded instead of reviving
      a stale — possibly poisoned — entry in the cleared table, and
      waiters blocked on pre-reset in-flight slots are released to
      re-claim their keys fresh. *)
end

type flow_kind = Basic | With_acmap | With_ecmap | Full

val flow_kinds : flow_kind list
val flow_label : flow_kind -> string

type opt_mode = Cgra_verify.Chain.opt = Default | Raw | Optimized
(** Which CDFG a cell maps.  [Raw] and [Optimized] cells carry their mode
    in the cache key and in the RNG cell key, so they coexist with
    (and never perturb) the byte-identical [Default] artifacts. *)

val set_opt_mode : opt_mode -> unit
(** Set the process-wide default mode used when {!run_of} is called
    without [?opt] — how the bench [--opt] flag switches whole artifacts
    to optimized kernels.  Call before any cells are computed. *)

val cell_flow_config :
  ?opt:opt_mode ->
  string ->
  Cgra_arch.Config.name ->
  flow_kind ->
  Cgra_core.Flow_config.t
(** [cell_flow_config slug config flow] is the flow's configuration with
    the seed replaced by the cell-keyed split described above.  Exposed
    so tests can reproduce a single cell outside the cache. *)

type run = {
  mapping : Cgra_core.Mapping.t;
  program : Cgra_asm.Assemble.program;  (** the validated, simulated program *)
  sim : Cgra_sim.Simulator.result;
  cycles : int;
  energy : Cgra_power.Energy.breakdown;
  compile_seconds : float;
      (** wall-clock mapping time, monotonic clock; host-dependent *)
  compile_work : int;
      (** deterministic search effort (binding attempts) — use this, not
          [compile_seconds], for anything that must reproduce exactly *)
  retries_used : int;
      (** re-seeded flow retries consumed before the mapping succeeded *)
  search : Cgra_core.Search.block_stats list;
      (** per-block search telemetry of the successful attempt, traversal
          order; deterministic except for the [wall_seconds] field *)
  opt_stats : Cgra_opt.Pipeline.report option;
      (** pass statistics when the cell ran in [Optimized] mode *)
}

type cell =
  | Mapped of run
  | Unmappable of {
      reason : string;
      compile_seconds : float;
      compile_work : int;
    }

val run_of :
  ?opt:opt_mode ->
  Cgra_kernels.Kernel_def.t ->
  Cgra_arch.Config.name ->
  flow_kind ->
  cell
(** Memoized; safe to call concurrently.  [opt] defaults to the
    process-wide mode ({!set_opt_mode}).  A chain failure raises
    {!Failed}, cached and re-raised to every consumer.  [Optimized] cells
    are verified three ways: differentially inside the pipeline, by the
    validator, and end-to-end against the golden model. *)

type cpu_run = {
  cpu_sim : Cgra_cpu.Cpu_sim.result;
  cpu_energy : Cgra_power.Energy.breakdown;
}

val cpu_of : Cgra_kernels.Kernel_def.t -> cpu_run
(** Memoized; also checked against the golden model. *)

val compile_work_of : cell -> int
val kernels : Cgra_kernels.Kernel_def.t list

val warm : ?jobs:int -> unit -> unit
(** Evaluate the whole grid — every (kernel, configuration, flow) cell
    plus the CPU baselines — with up to [jobs] domains (default
    {!Cgra_util.Pool.default_jobs}), filling the cache so subsequent
    figure rendering is pure table lookup.  Byte-identical artifacts at
    any [jobs]. *)

val compute_count : unit -> int
(** Number of cells actually computed (not served from cache) since the
    last {!clear_caches} (or process start), across both caches.  For
    tests: a concurrent storm of [run_of] calls on one key must raise
    this by exactly 1. *)

val clear_caches : unit -> unit
(** Drop both caches and reset {!compute_count} to 0 — the code path the
    daemon's [clear] admin request shares.  Safe under concurrent
    computes: in-flight cells publish into the {e old} generation and are
    discarded (see {!Memo.reset}), so a cleared cache never revives a
    poisoned computation. *)

type artifact_backend =
  opt_mode ->
  Cgra_kernels.Kernel_def.t ->
  Cgra_arch.Config.name ->
  flow_kind ->
  run ->
  unit
(** A pluggable artifact store: called once per {e computed} (never
    cache-served) [Mapped] cell, after validation and the golden check.
    [Cgra_serve] installs a backend that serializes the cell to
    deterministic artifact bytes and writes them into the daemon's
    content-addressed on-disk store, so the bench harness and [cgra_mapd]
    share one cache.  Backend exceptions are reported to stderr and
    swallowed — publishing is best-effort and must never fail the
    harness. *)

val set_artifact_backend : artifact_backend option -> unit
(** Install (or with [None] remove) the backend.  Thread-safe. *)
