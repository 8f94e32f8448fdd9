module FC = Cgra_core.Flow_config
module K = Cgra_kernels.Kernel_def
module Chain = Cgra_verify.Chain
module Pool = Cgra_util.Pool
module Rng = Cgra_util.Rng

(* A cell the chain refused — an invalid artifact, a golden mismatch, a
   simulator error: tool bugs the harness refuses to report numbers from. *)
exception
  Failed of { kernel : string; target : string; failure : Chain.failure }

let () =
  Printexc.register_printer (function
    | Failed { kernel; target; failure } ->
      Some
        (Printf.sprintf "Runner.Failed (%s on %s: %s)" kernel target
           (Chain.failure_to_string failure))
    | _ -> None)

type flow_kind = Basic | With_acmap | With_ecmap | Full

let flow_kinds = [ Basic; With_acmap; With_ecmap; Full ]

let flow_label = function
  | Basic -> "basic"
  | With_acmap -> "basic+ACMAP"
  | With_ecmap -> "basic+ACMAP+ECMAP"
  | Full -> "basic+ACMAP+ECMAP+CAB"

let flow_config = function
  | Basic -> FC.basic
  | With_acmap -> FC.with_acmap
  | With_ecmap -> FC.with_acmap_ecmap
  | Full -> FC.context_aware

type opt_mode = Chain.opt = Default | Raw | Optimized

let opt_mode_label = function Default -> "" | Raw -> "+RAW" | Optimized -> "+OPT"

(* Global mode driven by the bench [--opt] flag; [Default] keeps every
   seed artifact byte-identical. *)
let global_opt_mode = Atomic.make Default
let set_opt_mode m = Atomic.set global_opt_mode m

(* Every grid cell runs on its own split of the SplitMix64 stream, keyed by
   the cell's identity.  The cell's results therefore do not depend on how
   many other cells ran before it, in which order, or on how many domains —
   which is what makes every artifact byte-identical at any [--jobs].
   [Default] mode contributes an empty suffix, so its keys (and seeds) are
   exactly the seed harness's. *)
let cell_key ?(opt = Default) slug config flow =
  slug ^ "/" ^ Cgra_arch.Config.to_string config ^ "/" ^ flow_label flow
  ^ opt_mode_label opt

let cell_flow_config ?(opt = Default) slug config flow =
  let fc = flow_config flow in
  { fc with
    FC.seed = Rng.seed_of ~base:fc.FC.seed (cell_key ~opt slug config flow) }

type run = {
  mapping : Cgra_core.Mapping.t;
  program : Cgra_asm.Assemble.program;
  sim : Cgra_sim.Simulator.result;
  cycles : int;
  energy : Cgra_power.Energy.breakdown;
  compile_seconds : float;
  compile_work : int;
  retries_used : int;
  search : Cgra_core.Search.block_stats list;
  opt_stats : Cgra_opt.Pipeline.report option;
}

type cell =
  | Mapped of run
  | Unmappable of {
      reason : string;
      compile_seconds : float;
      compile_work : int;
    }

(* ---- thread-safe memoisation ---------------------------------------- *)

(* The run cache is shared by every figure and by the parallel warm-up.
   Each key holds either a finished value or a [Computing] marker placed by
   the domain that claimed it; other domains block on the condition
   variable until the producer publishes, so a cell is *computed exactly
   once* no matter how many domains ask for it concurrently.  Exceptions
   (e.g. the golden-model check failing — a harness bug) are cached and
   re-raised to every consumer rather than recomputed.

   Exception safety is load-bearing: the claiming domain MUST publish
   something, or every waiter blocks forever and every later lookup finds
   a stale [Computing] marker (which used to die on [assert false],
   permanently poisoning the key).  [get] therefore runs the compute under
   [Fun.protect]: a value publishes [Ready], a caught exception publishes
   [Failed] (cached, re-raised to all consumers with its original
   backtrace), and anything that escapes both — an asynchronous interrupt
   landing between the claim and the publish — clears the slot in the
   [finally], so the key merely recomputes on the next call. *)
module Memo = struct
  type 'a slot =
    | Computing
    | Ready of 'a
    | Failed of exn * Printexc.raw_backtrace

  type ('k, 'v) t = {
    table : ('k, 'v slot) Hashtbl.t;
    mutex : Mutex.t;
    cond : Condition.t;
    computes : int Atomic.t;
    mutable generation : int;  (* bumped by [reset]; guarded by [mutex] *)
  }

  let create n =
    {
      table = Hashtbl.create n;
      mutex = Mutex.create ();
      cond = Condition.create ();
      computes = Atomic.make 0;
      generation = 0;
    }

  let computed m = Atomic.get m.computes

  (* A reset must not only drop the table: computes claimed *before* the
     reset may still be in flight, and their eventual publish (a value, a
     cached failure, or the async-exception slot clear) would land in the
     freshly cleared table — reviving a poisoned or stale computation
     under a key that may since have been re-claimed by a new producer.
     The generation counter makes those late publishes no-ops, and the
     broadcast releases waiters blocked on pre-reset [Computing] markers
     so they re-claim against the new generation. *)
  let reset m =
    Mutex.lock m.mutex;
    Hashtbl.reset m.table;
    Atomic.set m.computes 0;
    m.generation <- m.generation + 1;
    Condition.broadcast m.cond;
    Mutex.unlock m.mutex

  (* Forget one key — the seam the daemon needs for timed-out computes:
     a [Timed_out] outcome is a fact about the deadline, not the spec,
     so leaving it [Ready] would serve stale give-ups to patient future
     requests.  A [Computing] slot is left alone: removing it would
     orphan the in-flight producer's publish and strand its waiters. *)
  let forget m key =
    Mutex.lock m.mutex;
    (match Hashtbl.find_opt m.table key with
    | Some Computing | None -> ()
    | Some (Ready _ | Failed _) -> Hashtbl.remove m.table key);
    Condition.broadcast m.cond;
    Mutex.unlock m.mutex

  let get m key compute =
    Mutex.lock m.mutex;
    let rec claim () =
      match Hashtbl.find_opt m.table key with
      | None ->
        Hashtbl.replace m.table key Computing;
        `Compute m.generation
      | Some (Ready v) -> `Value v
      | Some (Failed (e, bt)) -> `Reraise (e, bt)
      | Some Computing ->
        Condition.wait m.cond m.mutex;
        claim ()
    in
    let decision = claim () in
    Mutex.unlock m.mutex;
    match decision with
    | `Value v -> v
    | `Reraise (e, bt) -> Printexc.raise_with_backtrace e bt
    | `Compute gen ->
      Atomic.incr m.computes;
      let published = ref false in
      let publish outcome =
        Mutex.lock m.mutex;
        (if m.generation = gen then
           match outcome with
           | Some o -> Hashtbl.replace m.table key o
           | None -> Hashtbl.remove m.table key);
        published := true;
        Condition.broadcast m.cond;
        Mutex.unlock m.mutex
      in
      Fun.protect
        ~finally:(fun () -> if not !published then publish None)
        (fun () ->
          match compute () with
          | v ->
            publish (Some (Ready v));
            v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            publish (Some (Failed (e, bt)));
            Printexc.raise_with_backtrace e bt)
end

let cache :
    (string * Cgra_arch.Config.name * flow_kind * opt_mode, cell) Memo.t =
  Memo.create 64

(* ---- pluggable artifact-store backend -------------------------------- *)

(* The serve subsystem (lib/serve) installs a hook here so every cell the
   harness computes is also published — as deterministic artifact bytes
   under its content-addressed key — into the same on-disk store the
   [cgra_mapd] daemon serves from.  The hook runs once per *computed*
   (not cache-served) Mapped cell; a failing backend must never fail the
   harness, so errors are reported to stderr and swallowed. *)
type artifact_backend =
  opt_mode -> K.t -> Cgra_arch.Config.name -> flow_kind -> run -> unit

let artifact_backend : artifact_backend option Atomic.t = Atomic.make None
let set_artifact_backend b = Atomic.set artifact_backend b

let publish_artifact opt k config flow r =
  match Atomic.get artifact_backend with
  | None -> ()
  | Some f -> (
    try f opt k config flow r
    with e ->
      Printf.eprintf "Runner: artifact backend failed on %s: %s\n%!"
        (cell_key ~opt k.K.slug config flow)
        (Printexc.to_string e))

let run_of ?opt k config flow =
  let opt = match opt with Some m -> m | None -> Atomic.get global_opt_mode in
  Memo.get cache (k.K.slug, config, flow, opt) (fun () ->
      let target = Cgra_arch.Config.to_string config ^ "/" ^ flow_label flow in
      match
        Chain.run ~opt
          ~config:(cell_flow_config ~opt k.K.slug config flow)
          (Cgra_arch.Config.cgra config) (Chain.of_kernel k)
      with
      | Error failure -> raise (Failed { kernel = k.K.name; target; failure })
      | Ok (Chain.Timed_out { where }) ->
        failwith ("Runner: cell timed out without a deadline at " ^ where)
      | Ok (Chain.Unmappable { failure; map_seconds }) ->
        Unmappable
          { reason = failure.Cgra_core.Flow.reason;
            compile_seconds = map_seconds;
            compile_work = failure.Cgra_core.Flow.work }
      | Ok (Chain.Mapped c) ->
        let stats = c.Chain.stats in
        let r =
          { mapping = c.Chain.mapping; program = c.Chain.program;
            sim = c.Chain.sim; cycles = c.Chain.sim.Cgra_sim.Simulator.cycles;
            energy = c.Chain.energy; compile_seconds = c.Chain.map_seconds;
            compile_work = stats.Cgra_core.Flow.work;
            retries_used = stats.Cgra_core.Flow.retries_used;
            search = stats.Cgra_core.Flow.search;
            opt_stats = stats.Cgra_core.Flow.opt }
        in
        publish_artifact opt k config flow r;
        Mapped r)

type cpu_run = {
  cpu_sim : Cgra_cpu.Cpu_sim.result;
  cpu_energy : Cgra_power.Energy.breakdown;
}

let cpu_cache : (string, cpu_run) Memo.t = Memo.create 8

let cpu_of k =
  Memo.get cpu_cache k.K.slug (fun () ->
      let prog = Cgra_cpu.Codegen.compile (K.cdfg k) in
      let mem = K.fresh_mem k in
      let cpu_sim = Cgra_cpu.Cpu_sim.run prog ~mem in
      if mem <> K.run_golden k then
        raise
          (Failed
             { kernel = k.K.name; target = "cpu"; failure = Chain.Golden_mismatch });
      { cpu_sim; cpu_energy = Cgra_power.Energy.cpu cpu_sim })

let compile_work_of = function
  | Mapped r -> r.compile_work
  | Unmappable u -> u.compile_work

let kernels = Cgra_kernels.Kernels.all

(* ---- parallel warm-up ------------------------------------------------ *)

let grid () =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun config -> List.map (fun flow -> `Cell (k, config, flow)) flow_kinds)
        Cgra_arch.Config.all
      @ [ `Cpu k ])
    kernels

let warm ?jobs () =
  Pool.iter ?jobs
    (function
      | `Cell (k, config, flow) -> ignore (run_of k config flow)
      | `Cpu k -> ignore (cpu_of k))
    (grid ())

let compute_count () = Memo.computed cache + Memo.computed cpu_cache

(* Reset the compute counters together with the caches: they count
   computations *since the last clear*, and tests that clear the cache
   and then assert "computed exactly once" would otherwise see the
   residue of every cell computed before the clear. *)
let clear_caches () =
  Memo.reset cache;
  Memo.reset cpu_cache
