(* The [beam_grid] and [exact_grid] workloads: whole-tool-chain cells.

   One op is one cell, cold: compile the kernel source, optionally run the
   [cgra_opt] pipeline, map, assemble, validate, simulate, compare the
   final memory against the kernel's golden model, and price the run.
   Each call into a layer is a span of the traced run. *)

open Common
module K = Cgra_kernels.Kernel_def
module FC = Cgra_core.Flow_config
module Config = Cgra_arch.Config
module Flow = Cgra_core.Flow
module Search = Cgra_core.Search

type verdict = Expected.verdict = Mapped | Unmappable | Unsat

type cell = {
  label : string;
  kernel : K.t;
  config : Config.name;
  fc : FC.t;
  opt : bool;  (** naive lowering, then the [cgra_opt] pipeline *)
}

type outcome = { verdict : verdict; cycles : int; energy_pj : float; words : int }

let kernel slug = Option.get (Cgra_kernels.Kernels.by_slug slug)

let cell ~flow ~fc ?(opt = false) k config =
  { label =
      Printf.sprintf "%s/%s/%s%s" k.K.slug (Config.to_string config) flow
        (if opt then "+opt" else "");
    kernel = k; config; fc; opt }

(* The paper's grid: every kernel x configuration under the basic and the
   context-aware flow, with the flow configurations [cgra_map map] uses. *)
let beam_cells ~smoke =
  let kernels, configs =
    if smoke then ([ kernel "fir"; kernel "dc_filter" ], [ Config.HOM64; Config.HET2 ])
    else (Cgra_kernels.Kernels.all, Config.all)
  in
  List.concat_map
    (fun k ->
      List.concat_map
        (fun config ->
          [ cell ~flow:"basic" ~fc:FC.basic k config;
            cell ~flow:"aware" ~fc:FC.context_aware k config ])
        configs)
    kernels

(* The exact backend on the kernels whose cells each solve in well under a
   second; MatM and NonSepFilter take minutes (see README.md). *)
let exact_cells ~smoke =
  let fc = { FC.context_aware with FC.backend = FC.Exact } in
  let slugs, configs =
    if smoke then ([ "fir"; "dc_filter" ], [ Config.HOM64 ])
    else ([ "fir"; "convolution"; "sep_filter"; "fft"; "dc_filter" ], Config.all)
  in
  List.concat_map
    (fun slug ->
      List.concat_map
        (fun config ->
          [ cell ~flow:"exact" ~fc (kernel slug) config;
            cell ~flow:"exact" ~fc ~opt:true (kernel slug) config ])
        configs)
    slugs

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Allocation counters around a call, read only in the traced run. *)
let gc_delta id f =
  if id < 0 then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let v = f () in
    let g1 = Gc.quick_stat () in
    let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
    Trace.count id "minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
    Trace.count id "major_words_direct"
      (g1.Gc.major_words -. g0.Gc.major_words -. promoted);
    Trace.count id "minor_gcs"
      (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
    Trace.count id "major_gcs"
      (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    v
  end

let count_search id (stats : Flow.stats) =
  let sum f =
    float_of_int (List.fold_left (fun a b -> a + f b) 0 stats.Flow.search)
  in
  let ms =
    1e3
    *. List.fold_left (fun a b -> a +. b.Search.wall_seconds) 0.0 stats.Flow.search
  in
  Trace.count id "block_ms" ms;
  Trace.count id "attempts" (float_of_int stats.Flow.work);
  Trace.count id "rounds" (sum (fun b -> b.Search.rounds));
  Trace.count id "children" (sum (fun b -> b.Search.children));
  Trace.count id "route_failures" (sum (fun b -> b.Search.route_failures));
  Trace.count id "acmap_kills" (sum (fun b -> b.Search.acmap_kills));
  Trace.count id "ecmap_kills" (sum (fun b -> b.Search.ecmap_kills));
  Trace.count id "prune_survivors" (sum (fun b -> b.Search.prune_survivors));
  Trace.count id "population_peak" (float_of_int stats.Flow.population_peak);
  Trace.count id "retries" (float_of_int stats.Flow.retries_used)

let run_cell ~op ~golden c =
  Trace.span ~op "op" @@ fun root ->
  let layer name f = Trace.span ~op ~parent:root name f in
  let cdfg =
    layer "lang" (fun id ->
        match Cgra_lang.Compile.compile ~raw:c.opt c.kernel.K.source with
        | Ok g ->
          Trace.count id "nodes" (float_of_int (Cgra_ir.Cdfg.node_count g));
          g
        | Error e -> fail "compile: %s" (Cgra_lang.Compile.error_to_string e))
  in
  let cdfg =
    if not c.opt then cdfg
    else
      layer "opt" (fun id ->
          let verify = Cgra_opt.Pipeline.verifier_of_mems [ K.fresh_mem c.kernel ] in
          match Cgra_opt.Pipeline.run ~verify cdfg with
          | g, r ->
            Trace.count id "nodes_removed"
              (float_of_int (r.Cgra_opt.Pipeline.nodes_before - r.nodes_after));
            Trace.count id "rounds" (float_of_int r.rounds);
            g
          | exception Cgra_opt.Pipeline.Verification_failed e ->
            fail "opt pipeline: %s" e)
  in
  let cgra = Config.cgra c.config in
  let backend = if c.fc.FC.backend = FC.Exact then "core.exact" else "core.search" in
  let mapped =
    layer backend (fun id ->
        match gc_delta id (fun () -> Flow.run ~config:c.fc cgra cdfg) with
        | Ok (m, stats) ->
          count_search id stats;
          Ok m
        | Error f ->
          Trace.count id "attempts" (float_of_int f.Flow.work);
          if f.Flow.timed_out <> None then fail "timed out: %s" f.Flow.reason
          else if has_sub f.Flow.reason "proved UNSAT" then begin
            Trace.count id "unsat" 1.0;
            Error Unsat
          end
          else Error Unmappable)
  in
  let none = { verdict = Unmappable; cycles = 0; energy_pj = 0.0; words = 0 } in
  match mapped with
  | Error v -> { none with verdict = v }
  | Ok m -> (
    match
      layer "asm" (fun id ->
          let prog = Cgra_asm.Assemble.assemble m in
          let words = Array.fold_left ( + ) 0 (Cgra_asm.Assemble.context_words prog) in
          Trace.count id "context_words" (float_of_int words);
          (prog, words))
    with
    | exception Cgra_asm.Assemble.Assembly_error _ ->
      (* register pressure the search does not model: unmappable, as the
         experiment harness classifies it *)
      none
    | prog, words ->
      layer "validate" (fun id ->
          let vs = Cgra_verify.Validator.check prog in
          Trace.count id "violations" (float_of_int (List.length vs));
          match vs with
          | [] -> ()
          | v :: _ -> fail "validator: %s" (Cgra_verify.Validator.to_string v));
      let mem = K.fresh_mem c.kernel in
      let sim =
        layer "sim" (fun id ->
            match Cgra_sim.Simulator.run prog ~mem with
            | sim ->
              Sim_layer.count id sim;
              sim
            | exception Cgra_sim.Simulator.Sim_error e ->
              fail "simulator: %s" (Cgra_sim.Simulator.error_to_string e))
      in
      if mem <> golden then fail "final memory differs from the golden model";
      let energy =
        layer "energy" (fun id ->
            let e = Cgra_power.Energy.cgra cgra sim in
            Trace.count id "protect_pj" e.Cgra_power.Energy.protect_pj;
            e)
      in
      { verdict = Mapped; cycles = sim.Cgra_sim.Simulator.cycles;
        energy_pj = energy.Cgra_power.Energy.total_pj; words })

(* A cell whose verdict is not the recorded one fails. *)
let checked_cell ~op ~golden c =
  let o = run_cell ~op ~golden c in
  (match List.assoc_opt c.label Expected.grid with
   | Some v when v <> o.verdict ->
     fail "verdict %s, recorded %s" (Expected.verdict_to_string o.verdict)
       (Expected.verdict_to_string v)
   | Some _ -> ()
   | None -> fail "no recorded verdict");
  o

(* The golden image of every kernel in [cells], cross-checked against the
   reference interpreter, so the oracle itself is trusted only after an
   independent check. *)
let golden_images cells =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let k = c.kernel in
      if not (Hashtbl.mem tbl k.K.slug) then begin
        let golden = K.run_golden k in
        let mem = K.fresh_mem k in
        ignore (Cgra_ir.Interp.run (Cgra_lang.Compile.compile_exn k.K.source) ~mem);
        if mem <> golden then
          fail "%s: golden model disagrees with the reference interpreter" k.K.slug;
        Hashtbl.replace tbl k.K.slug golden
      end)
    cells;
  tbl

let run ~cells ~seconds ~traced =
  let failures = failures () in
  let all = cells in
  let cells = Array.of_list cells in
  let n = Array.length cells in
  let r, setup_s =
    setup_around ~before:11 ~after:10
      (fun () -> golden_images all)
      (fun golden ->
        run_passes ~failures ~seconds ~traced ~ops:1
          ~label:(fun i -> cells.(i).label)
          n
          (fun ~op ~pass:_ i ->
            let c = cells.(i) in
            checked_cell ~op ~golden:(Hashtbl.find golden c.kernel.K.slug) c))
  in
  { setup_s;
    attempted = r.runs;
    failed = failures.n;
    errors = failure_lines failures;
    ops_per_s = r.ops_per_s;
    op_ms = r.cell_ms;
    mapped =
      Array.to_list r.first
      |> List.filter_map (function
           | Some { verdict = Mapped; cycles; energy_pj; words } ->
             Some (cycles, energy_pj, words)
           | _ -> None);
    rss_mb = self_rss_mb ();
    phase_attrs = r.phase_attrs;
    notes = [] }

(* Every cell's verdict, for [Expected]: printed by [main.exe record]. *)
let record cells =
  let golden = golden_images cells in
  List.map
    (fun c ->
      let o, s =
        time (fun () -> run_cell ~op:0 ~golden:(Hashtbl.find golden c.kernel.K.slug) c)
      in
      Printf.eprintf "%-28s %-10s %6d cycles %8.3f uJ %4d words %8.1f ms\n%!"
        c.label (Expected.verdict_to_string o.verdict) o.cycles
        (Cgra_power.Energy.to_uj o.energy_pj) o.words (s *. 1e3);
      (c.label, o.verdict))
    cells
