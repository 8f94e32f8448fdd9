(** The one validated compute path: lower → optional [cgra_opt] pipeline →
    map → assemble → independent validation → cycle-level simulation →
    golden check → energy.

    Every consumer that turns a kernel into numbers goes through {!run}:
    the experiment harness ([Cgra_exp.Runner]), the daemon and its local
    fallback ([Cgra_serve.Compute]), the [cgra_map map] and [fault]
    commands, the bench ablations and the examples.  One path means one
    set of decisions — which CDFG a lowering mode maps, when the
    optimiser is differentially verified, what counts as unmappable,
    how protection reaches the simulator, which array the energy model
    prices — so the same request yields the same bytes wherever it is
    computed. *)

type opt =
  | Default    (** the inline-optimized lowering *)
  | Raw        (** naive lowering, no optimization at all *)
  | Optimized  (** naive lowering + the [cgra_opt] pipeline *)
(** Which CDFG the flow maps. *)

type kernel = {
  name : string;
  lower : raw:bool -> (Cgra_ir.Cdfg.t, string) result;
      (** the CDFG of the naive ([~raw:true]) or the inline-optimized
          lowering; [Error] is a source the frontend rejects *)
  fresh_mem : unit -> int array;  (** a new initial memory image *)
  golden : (int array -> int array) option;
      (** expected final memory from an initial image (the argument is
          not mutated); [None] skips the functional check *)
}

val of_kernel : Cgra_kernels.Kernel_def.t -> kernel
(** A bundled kernel: both lowerings, its input image and golden model. *)

val cdfg : opt -> kernel -> (Cgra_ir.Cdfg.t, string) result
(** The CDFG {!run} hands to the flow in mode [opt] (before the
    [cgra_opt] pipeline, which [Optimized] runs inside the flow). *)

type mapped = {
  mapping : Cgra_core.Mapping.t;
  stats : Cgra_core.Flow.stats;
  program : Cgra_asm.Assemble.program;
  sim : Cgra_sim.Simulator.result;
  energy : Cgra_power.Energy.breakdown;
  map_seconds : float;
      (** wall-clock time of the mapping flow alone; host-dependent *)
}

type outcome =
  | Mapped of mapped
  | Unmappable of { failure : Cgra_core.Flow.failure; map_seconds : float }
      (** the flow found no mapping, or register allocation failed
          (reason ["assembly: ..."]) — a verdict about the kernel *)
  | Timed_out of { where : string }
      (** the deadline fired mid-map; not a verdict, never to be cached *)

type failure =
  | Bad_source of string  (** the lowering failed *)
  | Bad_faults of string  (** the fault map does not fit the array *)
  | Opt_verification of string
      (** the [cgra_opt] pipeline changed the program's behaviour *)
  | Invalid_artifact of Validator.violation list
  | Sim_failed of Cgra_sim.Simulator.error
  | Golden_mismatch
      (** the simulated memory image differs from the golden model *)
(** A request the chain cannot serve, or a tool bug it refuses to report
    numbers from.  Never raised: {!run} returns it. *)

val failure_to_string : failure -> string

exception Failed of failure
(** Raised only by {!mapped}.  Registered with
    [Printexc.register_printer]. *)

val run :
  ?deadline:Cgra_util.Deadline.t ->
  ?opt:opt ->
  config:Cgra_core.Flow_config.t ->
  Cgra_arch.Cgra.t ->
  kernel ->
  (outcome, failure) result
(** [run ~config cgra kernel] maps [kernel] (in mode [opt], default
    [Default]) onto [cgra] degraded by [config.faults], assembles it,
    checks the program with {!Validator.check}, simulates it under
    [config.protection] and, when the kernel has a golden model, compares
    the final memory.  [Optimized] sets [config.optimize] and, when a
    golden model exists, differentially verifies the pipeline on the
    kernel's own input image.  Energy is priced on [cgra] as configured:
    a fault map shrinks what the mapper may use, not the silicon that
    fetches and leaks.  [deadline] bounds the mapping flow only. *)

val mapped : (outcome, failure) result -> (mapped, string) result
(** The mapped result, or [Error reason] when there is none (unmappable
    or timed out).  Raises {!Failed} on a chain failure — for callers
    such as the examples and ablations that can only stop on a tool bug. *)
