(* The per-layer metrics of a traced run, all computed from its span file.

   Times ([*.ms], [*_us]) are mean self time per call of the layer's span.
   Counts are totals over the traced pass (grids, [sim_campaign]) or the
   traced phase ([serve_mix]).  A layer the workload never calls reads 0.
   README.md maps each metric to the end-to-end metric it should move. *)

let metrics (sum : Trace.summary) =
  let t = Trace.total sum and ms = Trace.self_ms sum in
  let calls name = float_of_int (Trace.calls sum name) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let phase k = t "phase" k in
  let search = "core.search" and exact = "core.exact" in
  let gc k = t search k +. t exact k in
  let client_hit_us = 1e3 *. ms "client.hit" and client_miss_ms = ms "client.miss" in
  let daemon_hit_us = ratio (phase "daemon_hit_us") (phase "daemon_hits") in
  let local_ms = ms "serve.compute" in
  let counts layer names =
    List.map (fun (name, key) -> (name, t layer key, "count")) names
  in
  [ ("lang.ms", ms "lang", "ms"); ("lang.nodes", t "lang" "nodes", "count");
    ("opt.ms", ms "opt", "ms");
    ("opt.nodes_removed", t "opt" "nodes_removed", "count");
    ("opt.rounds", t "opt" "rounds", "count");
    ("map.ms", ms search, "ms");
    ("search.block_ms", ratio (t search "block_ms") (calls search), "ms") ]
  @ counts search
      [ ("search.attempts", "attempts"); ("search.children", "children");
        ("search.route_failures", "route_failures");
        ("search.acmap_kills", "acmap_kills"); ("search.ecmap_kills", "ecmap_kills");
        ("search.prune_survivors", "prune_survivors") ]
  @ [ ( "search.survivor_ratio",
        ratio (t search "prune_survivors") (t search "children"),
        "ratio" );
      ("search.population_peak", Trace.peak sum search "population_peak", "count");
      ("search.retries", t search "retries", "count");
      ("map.minor_words", gc "minor_words", "words");
      ("map.major_words_direct", gc "major_words_direct", "words");
      ("map.minor_gcs", gc "minor_gcs", "count");
      ("map.major_gcs", gc "major_gcs", "count");
      ("exact.block_ms", ratio (t exact "block_ms") (calls exact), "ms");
      ("exact.solves", t exact "rounds", "count");
      ("exact.conflicts", t exact "attempts", "count");
      ( "exact.conflicts_per_s",
        ratio (t exact "attempts") (Trace.total_self_s sum exact),
        "1/s" );
      ("exact.unsat_verdicts", t exact "unsat", "count");
      ("asm.ms", ms "asm", "ms");
      ("asm.context_words", t "asm" "context_words", "words");
      ("validate.ms", ms "validate", "ms");
      ("validate.violations", t "validate" "violations", "count");
      ("sim.ms", ms "sim", "ms"); ("sim.runs", calls "sim", "count");
      ("sim.cycles", t "sim" "cycles", "cycles");
      ( "sim.cycles_per_s",
        ratio (t "sim" "cycles") (Trace.total_self_s sum "sim"),
        "1/s" ) ]
  @ counts "sim"
      [ ("sim.stall_cycles", "stall_cycles"); ("sim.instructions", "instructions");
        ("sim.ecc_corrected", "ecc_corrected"); ("sim.ecc_detected", "ecc_detected");
        ("sim.scrub_reads", "scrub_reads") ]
  @ [ ("fault.ms", ms "fault", "ms");
      ( "fault.trials_per_s",
        ratio (t "fault" "trials") (Trace.total_self_s sum "fault"),
        "1/s" ) ]
  @ counts "fault"
      [ ("fault.masked", "masked"); ("fault.wrong", "wrong"); ("fault.crash", "crash");
        ("fault.hang", "hang"); ("fault.detected", "detected");
        ("fault.corrected", "corrected") ]
  @ [ ("energy.ms", ms "energy", "ms");
      ("energy.protect_pj", t "energy" "protect_pj", "pJ");
      ("client.hit_us", client_hit_us, "us");
      ("client.miss_ms", client_miss_ms, "ms");
      ("daemon.hit_service_us", daemon_hit_us, "us");
      ( "daemon.miss_service_ms",
        ratio (phase "daemon_miss_us") (phase "daemon_misses") /. 1e3,
        "ms" );
      ("serve.wire_us", client_hit_us -. daemon_hit_us, "us");
      ("daemon.hits", phase "daemon_hits", "count");
      ("daemon.misses", phase "daemon_misses", "count");
      ("daemon.errors", phase "daemon_errors", "count");
      ("daemon.shed", phase "daemon_shed", "count");
      ("daemon.timeouts", phase "daemon_timeouts", "count");
      ("serve.singleflight_joins", phase "singleflight_joins", "count");
      ("store.entries", phase "store_entries", "count");
      ("store.bytes", phase "store_bytes", "B");
      ("serve.local_compute_ms", local_ms, "ms");
      ("serve.miss_overhead_ms", client_miss_ms -. local_ms, "ms");
      ("hit_p50_us", phase "hit_p50_us", "us");
      ("hit_tail_us", phase "hit_tail_us", "us");
      ("miss_p50_ms", phase "miss_p50_ms", "ms");
      ( "trace.overhead_ratio",
        ratio (phase "traced_ops_per_s") (phase "untraced_ops_per_s"),
        "ratio" ) ]
