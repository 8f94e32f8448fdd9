(* The [sim_campaign] workload: the simulator under fault injection.

   Set-up maps the seven kernels on HET2 with the context-aware flow.  A
   pass then runs, for each kernel at protection none and SECDED, a
   single-fault campaign ([Fault.run_campaign ~jobs:1]) under the pass's
   own campaign seed, plus one fault-free simulation and energy pricing.
   One op is one trial; a
   trial's latency is its campaign cell's time divided by its trials,
   since the campaign does not time trials one by one. *)

open Common
module K = Cgra_kernels.Kernel_def
module FC = Cgra_core.Flow_config
module Fault = Cgra_verify.Fault
module P = Cgra_arch.Protection
module S = Cgra_sim.Simulator

type premapped = {
  kernel : K.t;
  prog : Cgra_asm.Assemble.program;
  words : int;
  golden : int array;
}

let config = Cgra_arch.Config.HET2

let premap k =
  let cdfg =
    match Cgra_lang.Compile.compile k.K.source with
    | Ok g -> g
    | Error e -> fail "%s: compile: %s" k.K.slug (Cgra_lang.Compile.error_to_string e)
  in
  match Cgra_core.Flow.run ~config:FC.context_aware (Cgra_arch.Config.cgra config) cdfg with
  | Error f -> fail "%s does not map on HET2: %s" k.K.slug f.Cgra_core.Flow.reason
  | Ok (m, _) ->
    let prog = Cgra_asm.Assemble.assemble m in
    (match Cgra_verify.Validator.check prog with
     | [] -> ()
     | v :: _ -> fail "%s: validator: %s" k.K.slug (Cgra_verify.Validator.to_string v));
    { kernel = k; prog;
      words = Array.fold_left ( + ) 0 (Cgra_asm.Assemble.context_words prog);
      golden = K.run_golden k }

let protections = [ ("none", P.none); ("secded", P.secded) ]

let summary_line label (s : Fault.summary) =
  Printf.sprintf "%s:%d,%d,%d,%d,%d,%d,%d" label s.Fault.trials s.masked
    s.wrong_output s.crash s.hang s.detected s.corrected

(* One (kernel, protection) cell: the campaign, then the fault-free run. *)
let run_cell ~op ~seed ~trials p (pname, profile) =
  Trace.span ~op "op" @@ fun root ->
  let layer name f = Trace.span ~op ~parent:root name f in
  let protected = not (P.is_none profile) in
  let slug = p.kernel.K.slug in
  let c =
    layer "fault" (fun id ->
        let c =
          Fault.run_campaign ~jobs:1
            ?protect:(if protected then Some profile else None)
            ~seed ~trials ~key:(slug ^ "/HET2")
            ~fresh_mem:(fun () -> K.fresh_mem p.kernel) p.prog
        in
        let s = c.Fault.summary in
        List.iter
          (fun (k, v) -> Trace.count id k (float_of_int v))
          [ ("trials", s.Fault.trials); ("masked", s.masked);
            ("wrong", s.wrong_output); ("crash", s.crash); ("hang", s.hang);
            ("detected", s.detected); ("corrected", s.corrected) ];
        c)
  in
  let s = c.Fault.summary in
  if s.trials <> trials
     || s.masked + s.wrong_output + s.crash + s.hang + s.detected + s.corrected
        <> trials
  then fail "%s/%s: campaign outcomes do not add up to %d trials" slug pname trials;
  if protected then
    List.iter
      (fun (t : Fault.trial) ->
        match (t.injection, t.outcome) with
        | Fault.Context_bit _, (Fault.Masked | Fault.Corrected) -> ()
        | Fault.Context_bit _, o ->
          fail "%s/secded: context upset escaped: %s -> %s" slug
            (Fault.injection_to_string t.injection)
            (Fault.outcome_to_string o)
        | _ -> ())
      c.Fault.runs;
  let protect =
    if protected then
      Some { S.profile; upsets = []; scrub_interval = P.default_scrub_interval }
    else None
  in
  let mem = K.fresh_mem p.kernel in
  let sim =
    layer "sim" (fun id ->
        match S.run ?protect p.prog ~mem with
        | sim ->
          Sim_layer.count id sim;
          sim
        | exception S.Sim_error e -> fail "%s/%s: simulator: %s" slug pname (S.error_to_string e))
  in
  if mem <> p.golden then fail "%s/%s: final memory differs from the golden model" slug pname;
  let cgra = Cgra_arch.Config.cgra config in
  let energy =
    layer "energy" (fun id ->
        let e =
          if protected then Cgra_power.Energy.cgra ~protect:profile cgra sim
          else Cgra_power.Energy.cgra cgra sim
        in
        Trace.count id "protect_pj" e.Cgra_power.Energy.protect_pj;
        e)
  in
  ( summary_line (slug ^ "/" ^ pname) s,
    (sim.S.cycles, energy.Cgra_power.Energy.total_pj, p.words) )

let kernels ~smoke =
  if smoke then List.filter_map Cgra_kernels.Kernels.by_slug [ "fir"; "dc_filter" ]
  else Cgra_kernels.Kernels.all

let trials ~smoke = if smoke then 8 else 120

(* Digest of one pass's campaign summaries, the form [Expected.campaigns]
   records. *)
let digest lines = Digest.to_hex (Digest.string (String.concat ";" lines))

let cells premapped = List.concat_map (fun p -> List.map (fun pr -> (p, pr)) protections) premapped

(* The campaign seed of pass [pass]: a pass draws one of the seeds whose
   counts [Expected.campaigns] records, so every whole pass is checked
   against them, and a run spreads its trials over several campaigns. *)
let campaign_seed ~seed pass = Random.State.int (Random.State.make [| seed; pass |]) 100

let run ~smoke ~seed ~seconds ~traced =
  let failures = failures () in
  let trials = trials ~smoke in
  (* the summary line of every cell run, by pass: (campaign seed, cell, line) *)
  let lines = Hashtbl.create 16 in
  let (r, cells), setup_s =
    setup_around ~before:1 ~after:2
      (fun () -> List.map premap (kernels ~smoke))
      (fun premapped ->
        let cells = Array.of_list (cells premapped) in
        let n = Array.length cells in
        ( run_passes ~failures ~seconds ~traced ~ops:trials
            ~same:(fun (_, a) (_, b) -> a = b)
            ~label:(fun i ->
              let pm, (pname, _) = cells.(i) in
              pm.kernel.K.slug ^ "/" ^ pname)
            n
            (fun ~op ~pass i ->
              let pm, pr = cells.(i) in
              let cseed = campaign_seed ~seed pass in
              let ((line, _) as o) = run_cell ~op ~seed:cseed ~trials pm pr in
              Hashtbl.add lines ((op - 1) / n) (cseed, i, line);
              o),
          cells ))
  in
  let n = Array.length cells in
  (if not smoke then
     let passes = List.sort_uniq compare (List.of_seq (Hashtbl.to_seq_keys lines)) in
     List.iter
       (fun p ->
         match List.sort compare (Hashtbl.find_all lines p) with
         | (cseed, _, _) :: _ as runs when List.length runs = n -> (
           match List.assoc_opt cseed Expected.campaigns with
           | Some d when d = digest (List.map (fun (_, _, l) -> l) runs) -> ()
           | _ ->
             record_failure ~ops:(n * trials) failures
               (Printf.sprintf "campaign counts differ from the recorded ones for seed %d"
                  cseed))
         | _ -> () (* a top-up pass runs only some cells *))
       passes);
  { setup_s;
    attempted = r.runs * trials;
    failed = failures.n;
    errors = failure_lines failures;
    ops_per_s = r.ops_per_s;
    (* the campaign does not time trials one by one: one sample per
       (kernel, protection) cell, its median time per trial *)
    op_ms = List.map (fun ms -> ms /. float_of_int trials) r.cell_ms;
    mapped = Array.to_list r.first |> List.filter_map (Option.map snd);
    rss_mb = self_rss_mb ();
    phase_attrs = r.phase_attrs;
    notes = [] }

(* Campaign digests for seeds [0, seeds), printed by [main.exe record]. *)
let record ~seeds =
  let premapped = List.map premap (kernels ~smoke:false) in
  List.init seeds (fun seed ->
      let lines =
        List.map
          (fun (pm, pr) -> fst (run_cell ~op:0 ~seed ~trials:(trials ~smoke:false) pm pr))
          (cells premapped)
      in
      Printf.eprintf "seed %d: %s\n%!" seed (String.concat " " lines);
      (seed, digest lines))
