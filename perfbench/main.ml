(* The benchmark's entry point; see README.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--daemon PATH] [--out DIR] [--smoke]
     main.exe record [--daemon PATH]

   NAME is beam_grid, exact_grid, sim_campaign, serve_mix or all.  The
   last line of standard output is one JSON object: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer metrics of a traced
   run.  Exits 1 when any op failed or any output was wrong. *)

let workloads = [ "beam_grid"; "exact_grid"; "sim_campaign"; "serve_mix" ]

type opts = {
  seed : int;
  seconds : float;
  traced : bool;
  daemon : string;
  out : string;
  smoke : bool;
}

let run_workload o name =
  match name with
  | "beam_grid" ->
    Grid.run ~cells:(Grid.beam_cells ~smoke:o.smoke) ~seconds:o.seconds
      ~traced:o.traced
  | "exact_grid" ->
    Grid.run ~cells:(Grid.exact_cells ~smoke:o.smoke) ~seconds:o.seconds
      ~traced:o.traced
  | "sim_campaign" ->
    Campaign.run ~smoke:o.smoke ~seed:o.seed ~seconds:o.seconds ~traced:o.traced
  | "serve_mix" ->
    Serve_mix.run ~smoke:o.smoke ~seed:o.seed ~seconds:o.seconds
      ~traced:o.traced ~daemon:o.daemon ~dir:o.out
  | _ -> assert false

let end_to_end (r : Common.result) =
  let tail, pct, n = Stats.tail r.op_ms in
  let mapped = r.mapped in
  let geo f = Stats.geomean (List.map f mapped) in
  ( [ ("setup_s", r.setup_s, "s");
      ("ops_per_s", r.ops_per_s, "1/s");
      ("op_p50_ms", Stats.median r.op_ms, "ms");
      ("op_tail_ms", tail, "ms");
      ("rss_peak_mb", r.rss_mb, "MiB");
      ("mapped_cells", float_of_int (List.length mapped), "count");
      ("sim_cycles_geomean", geo (fun (c, _, _) -> float_of_int c), "cycles");
      ("energy_pj_geomean", geo (fun (_, e, _) -> e), "pJ");
      ("context_words_geomean", geo (fun (_, _, w) -> float_of_int w), "words") ],
    String.concat "; " (Printf.sprintf "op_tail_ms is p%d of %d samples" pct n :: r.notes) )

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
           (if Float.is_finite v then Printf.sprintf "%.12g" v else "null")
           unit)
       metrics)

let print_metrics ~title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-28s %16.6g %s\n" name v unit)
    metrics

(* One workload: run it, print its metrics, and return
   (correct, attempted, failed, metrics). *)
let measure o name =
  let r =
    try run_workload o name
    with Common.Fail msg ->
      Printf.eprintf "%s: set-up failed: %s\n%!" name msg;
      exit 1
  in
  List.iter (fun e -> Printf.eprintf "%s: FAILED %s\n%!" name e) r.Common.errors;
  let metrics, problems =
    if not o.traced then begin
      let m, note = end_to_end r in
      print_metrics ~title:(Printf.sprintf "%s (seed %d): %s" name o.seed note) m;
      (m, [])
    end
    else begin
      let now = Cgra_util.Clock.now_ns () in
      Trace.add ~op:0 ~attrs:r.Common.phase_attrs "phase" now now;
      let path = Filename.concat o.out (Printf.sprintf "trace-%s-%d.tsv" name o.seed) in
      Trace.write path;
      let sum = Trace.summarize (Trace.read path) in
      Trace.reset ();
      let m = Layers.metrics sum in
      print_metrics ~title:(Printf.sprintf "%s (seed %d, traced: %s)" name o.seed path) m;
      List.iter (fun p -> Printf.eprintf "%s: trace: %s\n%!" name p) sum.Trace.problems;
      (m, sum.Trace.problems)
    end
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let correct = r.failed = 0 && problems = [] && finite in
  (correct, r.attempted, r.failed, metrics)

(* [main.exe record]: the tables of [Expected], recomputed. *)
let print_expected () =
  let table name rows =
    Printf.printf "let %s =\n" name;
    List.iteri (fun i row -> Printf.printf "  %s %s\n" (if i = 0 then "[" else ";") row) rows;
    print_endline "  ]"
  in
  let cells = Grid.beam_cells ~smoke:false @ Grid.exact_cells ~smoke:false in
  table "grid"
    (List.map
       (fun (label, v) ->
         Printf.sprintf "(%S, %s)" label
           (String.capitalize_ascii (Expected.verdict_to_string v)))
       (Grid.record cells));
  table "campaigns"
    (List.map (fun (seed, d) -> Printf.sprintf "(%d, %S)" seed d) (Campaign.record ~seeds:100))

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--daemon PATH] [--out DIR] [--smoke]\n\
    \       main.exe record";
  exit 2

let parse argv =
  let o =
    ref
      { seed = 1; seconds = 10.0; traced = false; daemon = "cgra_mapd.exe";
        out = ".perfbench"; smoke = false }
  in
  let workload = ref None and record = ref false in
  let int_arg k v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> Printf.eprintf "%s: not an integer: %s\n" k v; usage ()
  in
  let rec go = function
    | [] -> ()
    | "record" :: rest -> record := true; go rest
    | "--smoke" :: rest -> o := { !o with smoke = true }; go rest
    | k :: v :: rest -> (
      (match k with
       | "--workload" ->
         if v <> "all" && not (List.mem v workloads) then begin
           Printf.eprintf "unknown workload %s\n" v;
           usage ()
         end;
         workload := Some v
       | "--seed" -> o := { !o with seed = int_arg k v }
       | "--seconds" -> o := { !o with seconds = float_of_int (max 1 (int_arg k v)) }
       | "--trace" -> (
         match v with
         | "0" -> o := { !o with traced = false }
         | "1" -> o := { !o with traced = true }
         | _ -> usage ())
       | "--daemon" -> o := { !o with daemon = v }
       | "--out" -> o := { !o with out = v }
       | _ -> usage ());
      go rest)
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  (!o, !workload, !record)

let () =
  let o, workload, record = parse Sys.argv in
  if record then begin
    print_expected ();
    exit 0
  end;
  let workload = match workload with Some w -> w | None -> usage () in
  if not (Sys.file_exists o.out) then Sys.mkdir o.out 0o755;
  let names = if workload = "all" then workloads else [ workload ] in
  let results = List.map (fun n -> (n, measure o n)) names in
  let correct = List.for_all (fun (_, (c, _, _, _)) -> c) results in
  let attempted = List.fold_left (fun a (_, (_, n, _, _)) -> a + n) 0 results in
  let failed = List.fold_left (fun a (_, (_, _, f, _)) -> a + f) 0 results in
  Printf.printf "failed_ratio %.6g (%d of %d ops)\n"
    (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  let metrics =
    match results with
    | [ (_, (_, _, _, m)) ] -> m
    | _ ->
      List.concat_map
        (fun (n, (_, _, _, m)) ->
          List.map (fun (k, v, u) -> (n ^ "." ^ k, v, u)) m)
        results
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics);
  exit (if correct then 0 else 1)
