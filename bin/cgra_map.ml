(* Command-line driver for the mapping tool-chain.

   cgra_map list
   cgra_map map -k <kernel> [-c <config>] [-f <flow>] [--opt] [--jobs N]
                [--trace FILE] [--dump-dfg before|after] [--asm] [--simulate]
                [--degrade] [--max-attempts N] [--faults FILE]
                [--protect none|parity|secded]
   cgra_map fault -k <kernel> [-c <config>] [-f <flow>] [--seed N]
                  [--trials K] [--show M] [--protect none|parity|secded]
   cgra_map compile <file>        compile a kernel-language source file
   cgra_map artifacts <name|all>  regenerate paper tables/figures *)

open Cmdliner
module Chain = Cgra_verify.Chain

(* FILE arguments fail as one-line typed errors (exit 1), never as raw
   Sys_error backtraces. *)
let read_file_or_die ~what file =
  try
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error e ->
    Printf.eprintf "%s %s: %s\n" what file e;
    exit 1

let write_file_or_die ~what file contents =
  try
    let oc = open_out_bin file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents)
  with Sys_error e ->
    Printf.eprintf "%s %s: %s\n" what file e;
    exit 1

let config_names () =
  String.concat "|" (List.map Cgra_arch.Config.to_string Cgra_arch.Config.all)

let config_conv =
  let parse s =
    match Cgra_arch.Config.of_string s with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown configuration %s (valid: %s, case-insensitive)"
             s (config_names ())))
  in
  Arg.conv (parse, fun fmt c -> Format.fprintf fmt "%s" (Cgra_arch.Config.to_string c))

let flow_of_string = function
  | "basic" -> Some Cgra_core.Flow_config.basic
  | "acmap" -> Some Cgra_core.Flow_config.with_acmap
  | "ecmap" -> Some Cgra_core.Flow_config.with_acmap_ecmap
  | "full" | "cab" -> Some Cgra_core.Flow_config.context_aware
  | _ -> None

let flow_conv =
  let parse s =
    match flow_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg ("unknown flow " ^ s ^ " (basic|acmap|ecmap|full)"))
  in
  Arg.conv (parse, fun fmt f -> Format.fprintf fmt "%s" (Cgra_core.Flow_config.steps_of f))

(* Bad --protect values fail as one-line typed errors (exit 1) naming the
   valid forms, matching the daemon's knob diagnostics. *)
let protect_of_flag s =
  match Cgra_arch.Protection.profile_of_string s with
  | Some p -> p
  | None ->
    Printf.eprintf "--protect: unknown value %S (valid: %s)\n" s
      Cgra_arch.Protection.valid_values;
    exit 1

let protect_arg ~doc =
  Arg.(value & opt string "none" & info [ "protect" ] ~doc ~docv:"LEVEL")

let print_escalations =
  List.iter (fun e ->
      Printf.printf "  escalation: %s\n" (Cgra_core.Flow.escalation_to_string e))

(* Run the validated chain: exit 2 when there is no mapping, 3 when the
   chain refuses the result (invalid artifact, golden mismatch, ...). *)
let chain_or_exit ?opt ~config cgra kernel =
  match Chain.run ?opt ~config cgra kernel with
  | Ok (Chain.Mapped m) -> m
  | Ok (Chain.Unmappable { failure = f; _ }) ->
    Printf.printf "no mapping: %s\n" f.Cgra_core.Flow.reason;
    print_escalations f.Cgra_core.Flow.gave_up;
    exit 2
  | Ok (Chain.Timed_out { where }) ->
    Printf.printf "no mapping: timed out (%s)\n" where;
    exit 2
  | Error e ->
    Printf.eprintf "%s\n" (Chain.failure_to_string e);
    exit 3

let list_cmd =
  let doc = "List the bundled kernels and CGRA configurations." in
  let run () =
    print_endline "kernels:";
    List.iter
      (fun k ->
        Printf.printf "  %-16s %s\n" k.Cgra_kernels.Kernel_def.slug
          k.Cgra_kernels.Kernel_def.description)
      Cgra_kernels.Kernels.all;
    print_endline "configurations:";
    List.iter
      (fun c ->
        Printf.printf "  %-6s total %4d context words\n"
          (Cgra_arch.Config.to_string c)
          (Cgra_arch.Config.total_cm c))
      Cgra_arch.Config.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let map_cmd =
  let doc = "Map a kernel onto a CGRA configuration and report the result." in
  let kernel =
    Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~doc:"Kernel slug.")
  in
  let config =
    Arg.(value & opt config_conv Cgra_arch.Config.HET2 & info [ "c"; "config" ] ~doc:"CM configuration.")
  in
  let flow =
    Arg.(value & opt flow_conv Cgra_core.Flow_config.context_aware
         & info [ "f"; "flow" ] ~doc:"Mapping flow: basic, acmap, ecmap or full.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ]
             ~doc:"Expand the search population with $(docv) domains per \
                   round.  Expansion is RNG-free, so the mapping and every \
                   reported counter are byte-identical at any value; only \
                   wall-clock time changes."
             ~docv:"N")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ]
             ~doc:"Write per-block search telemetry to $(docv) as JSON \
                   lines: one object per basic block (rounds, binding \
                   attempts, children, filter kills, wall seconds, ...) \
                   plus a final summary object.  All counters are \
                   deterministic; only wall_seconds varies across runs."
             ~docv:"FILE")
  in
  let degrade =
    Arg.(value & flag
         & info [ "degrade" ]
             ~doc:"On failure, retry with an escalation ladder (wider beam, \
                   more expansion, softer pruning, fresh seeds) instead of \
                   plain re-seeding, and print the escalation trace.")
  in
  let max_attempts =
    Arg.(value & opt int 6
         & info [ "max-attempts" ]
             ~doc:"Attempt budget of the --degrade ladder." ~docv:"N")
  in
  let faults_file =
    Arg.(value & opt (some string) None
         & info [ "faults" ]
             ~doc:"Map around the permanent faults listed in $(docv) (one \
                   s-expression per line: (dead_tile T), (cm_rows_stuck T \
                   ROWS), (dead_link T north|south|west|east), (no_lsu T); \
                   ';' starts a comment).  Home selection, the capacity \
                   checks and the route table all see the degraded array."
             ~docv:"FILE")
  in
  let emit =
    Arg.(value & opt (some string) None
         & info [ "emit" ]
             ~doc:"Serialize the mapped-and-simulated result as a \
                   deterministic artifact to $(docv) — the same bytes a \
                   cgra_mapd daemon would store and serve for this request \
                   key."
             ~docv:"FILE")
  in
  let backend =
    let backend_conv =
      Arg.enum
        [ ("beam", Cgra_core.Flow_config.Beam);
          ("exact", Cgra_core.Flow_config.Exact);
          ("portfolio", Cgra_core.Flow_config.Portfolio) ]
    in
    Arg.(value & opt backend_conv Cgra_core.Flow_config.Beam
         & info [ "backend" ]
             ~doc:"Mapping backend: $(b,beam) (the stochastic beam search), \
                   $(b,exact) (the CDCL SAT backend — provably minimal \
                   schedule length per block, or a proof the block is \
                   unmappable under the encoding), or $(b,portfolio) (race \
                   both and keep the better-by-cost result; ties favour the \
                   beam)."
             ~docv:"NAME")
  in
  let dump_asm = Arg.(value & flag & info [ "asm" ] ~doc:"Print the per-tile assembly.") in
  let schedule = Arg.(value & flag & info [ "schedule" ] ~doc:"Print per-block schedule grids.") in
  let simulate =
    Arg.(value & flag
         & info [ "simulate" ]
             ~doc:"Print the cycle-level simulation and energy.  Every \
                   mapping is validated and simulated against the golden \
                   model either way.")
  in
  let opt =
    Arg.(value & flag
         & info [ "opt" ]
             ~doc:"Map the naive lowering through the cgra_opt pipeline \
                   (differentially verified) instead of the default \
                   inline-optimized lowering, and print per-pass statistics.")
  in
  let dump_dfg =
    Arg.(value
         & opt (some (enum [ ("before", `Before); ("after", `After) ])) None
         & info [ "dump-dfg" ]
             ~doc:"Dump each basic block's data-flow graph in DOT format, \
                   either $(b,before) optimization (the compiled CDFG as \
                   given to the flow) or $(b,after) it (the CDFG the mapping \
                   actually binds — identical to before unless --opt)."
             ~docv:"WHEN")
  in
  let dump_dfg_of cdfg =
    Array.iter
      (fun b ->
        let label i =
          Printf.sprintf "%d:%s" i
            (Cgra_ir.Opcode.to_string b.Cgra_ir.Cdfg.nodes.(i).Cgra_ir.Cdfg.opcode)
        in
        Printf.printf "// block %s\n%s" b.Cgra_ir.Cdfg.name
          (Cgra_graph.Digraph.to_dot ~label (Cgra_ir.Cdfg.dfg_graph b)))
      cdfg.Cgra_ir.Cdfg.blocks
  in
  let write_trace file slug config stats =
    let module S = Cgra_core.Search in
    let buf = Buffer.create 4096 in
    List.iter
      (fun (bs : S.block_stats) ->
        Printf.bprintf buf
          "{\"kernel\":\"%s\",\"config\":\"%s\",\"block\":%d,\"name\":\"%s\",\
           \"rounds\":%d,\"attempts\":%d,\"children\":%d,\
           \"route_failures\":%d,\"acmap_kills\":%d,\"ecmap_kills\":%d,\
           \"prune_survivors\":%d,\"finalize_failures\":%d,\"recomputes\":%d,\
           \"population_peak\":%d,\"wall_seconds\":%.6f}\n"
          slug
          (Cgra_arch.Config.to_string config)
          bs.S.block bs.S.block_name bs.S.rounds bs.S.attempts bs.S.children
          bs.S.route_failures bs.S.acmap_kills bs.S.ecmap_kills
          bs.S.prune_survivors bs.S.finalize_failures bs.S.recomputes
          bs.S.population_peak bs.S.wall_seconds)
      stats.Cgra_core.Flow.search;
    Printf.bprintf buf
      "{\"kernel\":\"%s\",\"config\":\"%s\",\"summary\":true,\"work\":%d,\
       \"retries_used\":%d,\"recomputes\":%d,\"population_peak\":%d}\n"
      slug
      (Cgra_arch.Config.to_string config)
      stats.Cgra_core.Flow.work stats.Cgra_core.Flow.retries_used
      stats.Cgra_core.Flow.recomputes stats.Cgra_core.Flow.population_peak;
    write_file_or_die ~what:"--trace" file (Buffer.contents buf)
  in
  let protect =
    protect_arg
      ~doc:
        "Context-memory protection profile: $(b,none), $(b,parity), \
         $(b,secded), or a per-size-class csv (cm64=secded,cm32=parity,\
         cm16=none).  Part of the artifact key; --simulate and --emit run \
         through the ECC fetch path and account its energy."
  in
  let run slug config flow opt jobs degrade max_attempts faults_file trace
      dump_dfg emit dump_asm schedule simulate backend protect =
    let protection = protect_of_flag protect in
    match Cgra_kernels.Kernels.by_slug slug with
    | None ->
      Printf.eprintf "unknown kernel %s (try: cgra_map list)\n" slug;
      exit 1
    | Some k ->
      let kernel = Chain.of_kernel k in
      let opt = if opt then Chain.Optimized else Chain.Default in
      let faults =
        match faults_file with
        | None -> []
        | Some file -> (
          match Cgra_arch.Fault_map.load file with
          | Ok fs -> fs
          | Error e ->
            Printf.eprintf "--faults %s: %s\n" file e;
            exit 1)
      in
      let flow =
        { flow with
          Cgra_core.Flow_config.expand_jobs = max 1 jobs; degrade;
          max_attempts = max 1 max_attempts; faults; backend; protection }
      in
      let cgra = Cgra_arch.Config.cgra config in
      (if faults <> [] then
         (* Surface bad tile ids before mapping, and show what remains. *)
         match Cgra_arch.Cgra.degrade cgra faults with
         | exception Invalid_argument e ->
           Printf.eprintf "--faults %s: %s\n" (Option.get faults_file) e;
           exit 1
         | degraded ->
           Printf.printf "fault map: %s\n"
             (String.concat " "
                (List.map Cgra_arch.Cgra.fault_to_string
                   (Cgra_arch.Cgra.faults degraded)));
           Format.printf "%a@." Cgra_arch.Cgra.pp_grid degraded);
      (match (dump_dfg, Chain.cdfg opt kernel) with
       | Some `Before, Ok cdfg -> dump_dfg_of cdfg
       | _ -> ());
      let c = chain_or_exit ~opt ~config:flow cgra kernel in
      let m = c.Chain.mapping and stats = c.Chain.stats in
      print_escalations stats.Cgra_core.Flow.escalations;
      (match trace with
       | Some file ->
         write_trace file slug config stats;
         Printf.printf "search trace written to %s\n" file
       | None -> ());
      (match stats.Cgra_core.Flow.opt with
       | Some report -> print_string (Cgra_opt.Pipeline.render_report report)
       | None -> ());
      if dump_dfg = Some `After then dump_dfg_of m.Cgra_core.Mapping.cdfg;
      Format.printf "%a@." Cgra_core.Mapping.pp_summary m;
      Format.printf "recomputes: %d, population peak: %d@."
        stats.Cgra_core.Flow.recomputes stats.Cgra_core.Flow.population_peak;
      if schedule then
        Array.iteri
          (fun bi _ -> Format.printf "%a@." Cgra_core.Mapping.pp_schedule (m, bi))
          m.Cgra_core.Mapping.bbs;
      (match emit with
       | None -> ()
       | Some file ->
         let module Serve = Cgra_serve in
         let spec =
           match Serve.Key.spec_of_bundled ~slug ~config ~flow ~opt ~faults with
           | Ok s -> s
           | Error e ->
             Printf.eprintf "--emit: %s\n" e;
             exit 1
         in
         let bytes =
           Serve.Artifact.render ~key_digest:(Serve.Key.digest spec) ~spec
             c.Chain.program c.Chain.sim c.Chain.energy
         in
         write_file_or_die ~what:"--emit" file bytes;
         Printf.printf "artifact %s written to %s (%d bytes)\n"
           (Serve.Artifact.digest bytes) file (String.length bytes));
      if dump_asm then
        Array.iteri
          (fun t tp -> Format.printf "%a@." Cgra_asm.Assemble.pp_tile (t, tp))
          c.Chain.program.Cgra_asm.Assemble.tiles;
      if simulate then begin
        let r = c.Chain.sim and e = c.Chain.energy in
        Format.printf
          "simulated: %d cycles (%d stalls), functional check PASSED, %.3f uJ@."
          r.Cgra_sim.Simulator.cycles r.Cgra_sim.Simulator.stall_cycles
          (Cgra_power.Energy.to_uj e.Cgra_power.Energy.total_pj);
        match r.Cgra_sim.Simulator.ecc with
        | Some ecc ->
          Format.printf
            "protection %s: %d detected, %d corrected, %d scrub cycles, \
             %.1f pJ ECC@."
            (Cgra_arch.Protection.profile_to_string protection)
            ecc.Cgra_sim.Simulator.detected ecc.Cgra_sim.Simulator.corrected
            ecc.Cgra_sim.Simulator.scrub_cycles
            e.Cgra_power.Energy.protect_pj
        | None -> ()
      end
  in
  Cmd.v (Cmd.info "map" ~doc)
    Term.(const run $ kernel $ config $ flow $ opt $ jobs $ degrade
          $ max_attempts $ faults_file $ trace $ dump_dfg $ emit $ dump_asm
          $ schedule $ simulate $ backend $ protect)

let fault_cmd =
  let doc =
    "Run a deterministic single-bit fault-injection campaign on a mapped \
     kernel."
  in
  let kernel =
    Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~doc:"Kernel slug.")
  in
  let config =
    Arg.(value & opt config_conv Cgra_arch.Config.HET2 & info [ "c"; "config" ] ~doc:"CM configuration.")
  in
  let flow =
    Arg.(value & opt flow_conv Cgra_core.Flow_config.context_aware
         & info [ "f"; "flow" ] ~doc:"Mapping flow: basic, acmap, ecmap or full.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Campaign RNG seed." ~docv:"N")
  in
  let trials =
    Arg.(value & opt int 120
         & info [ "trials" ] ~doc:"Number of single-fault trials." ~docv:"K")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ]
             ~doc:"Run trials on $(docv) domains (default: the machine's \
                   recommended count).  The report is byte-identical at any \
                   value."
             ~docv:"N")
  in
  let show =
    Arg.(value & opt int 10
         & info [ "show" ]
             ~doc:"Print the first $(docv) non-masked trials in full."
             ~docv:"M")
  in
  let protect =
    protect_arg
      ~doc:
        "Run the campaign through the context-memory ECC fetch path at this \
         protection profile ($(b,none), $(b,parity), $(b,secded), or a \
         per-size-class csv).  Injection sites are identical at every \
         level; the summary gains detected/corrected counts."
  in
  let run slug config flow seed trials jobs show protect =
    let protection = protect_of_flag protect in
    if trials <= 0 then begin
      Printf.eprintf "--trials must be positive (got %d)\n" trials;
      exit 1
    end;
    match Cgra_kernels.Kernels.by_slug slug with
    | None ->
      Printf.eprintf "unknown kernel %s (try: cgra_map list)\n" slug;
      exit 1
    | Some k ->
      let mapped =
        chain_or_exit ~config:flow (Cgra_arch.Config.cgra config)
          (Chain.of_kernel k)
      in
      let module F = Cgra_verify.Fault in
      let key =
        Printf.sprintf "%s/%s/%s/fault" slug
          (Cgra_arch.Config.to_string config)
          (Cgra_core.Flow_config.steps_of flow)
      in
      let c =
        F.run_campaign ?jobs ~protect:protection ~seed ~trials ~key
          ~fresh_mem:(fun () -> Cgra_kernels.Kernel_def.fresh_mem k)
          mapped.Chain.program
      in
      let s = c.F.summary in
      Printf.printf
        "campaign %s: %d trials, seed %d, fault-free %d cycles\n\
         masked %d, wrong-output %d, crash %d, hang %d  (%.1f%% masked)\n"
        key s.F.trials seed c.F.golden_cycles s.F.masked s.F.wrong_output
        s.F.crash s.F.hang
        (100.0 *. float_of_int s.F.masked /. float_of_int s.F.trials);
      if not (Cgra_arch.Protection.is_none protection) then
        Printf.printf "protection %s: detected %d, corrected %d\n"
          (Cgra_arch.Protection.profile_to_string protection)
          s.F.detected s.F.corrected;
      let interesting =
        List.filter (fun (t : F.trial) -> t.F.outcome <> F.Masked) c.F.runs
      in
      List.iteri
        (fun i (t : F.trial) ->
          if i < show then
            Printf.printf "  trial %3d: %s -> %s\n" t.F.index
              (F.injection_to_string t.F.injection)
              (F.outcome_to_string t.F.outcome))
        interesting
  in
  Cmd.v (Cmd.info "fault" ~doc)
    Term.(const run $ kernel $ config $ flow $ seed $ trials $ jobs $ show
          $ protect)

let compile_cmd =
  let doc = "Compile a kernel-language source file and print its CDFG." in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let src = read_file_or_die ~what:"compile" file in
    match Cgra_lang.Compile.compile src with
    | Ok cdfg -> Format.printf "%a@." Cgra_ir.Cdfg.pp cdfg
    | Error e ->
      Printf.eprintf "%s: %s\n" file (Cgra_lang.Compile.error_to_string e);
      exit 1
  in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ file)

let stats_cmd =
  let doc = "Print static and dynamic statistics of a kernel's CDFG." in
  let kernel =
    Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~doc:"Kernel slug.")
  in
  let run slug =
    match Cgra_kernels.Kernels.by_slug slug with
    | None ->
      Printf.eprintf "unknown kernel %s\n" slug;
      exit 1
    | Some k ->
      let cdfg = Cgra_kernels.Kernel_def.cdfg k in
      let mem = Cgra_kernels.Kernel_def.fresh_mem k in
      let trace = Cgra_ir.Interp.run cdfg ~mem in
      Format.printf "kernel %s: %d blocks, %d operations, %d symbol variables@."
        cdfg.Cgra_ir.Cdfg.kernel_name
        (Cgra_ir.Cdfg.block_count cdfg)
        (Cgra_ir.Cdfg.node_count cdfg)
        cdfg.Cgra_ir.Cdfg.sym_count;
      Format.printf "%-12s %6s %6s %9s %9s@." "block" "ops" "Wbb" "executions"
        "dyn-ops";
      Array.iteri
        (fun bi b ->
          let n = Array.length b.Cgra_ir.Cdfg.nodes in
          let execs = trace.Cgra_ir.Interp.block_counts.(bi) in
          Format.printf "%-12s %6d %6d %9d %9d@." b.Cgra_ir.Cdfg.name n
            (Cgra_ir.Cdfg.block_weight cdfg bi)
            execs (n * execs))
        cdfg.Cgra_ir.Cdfg.blocks
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ kernel)

let remote_cmd =
  let module Serve = Cgra_serve in
  let doc =
    "Request a mapping from a running cgra_mapd daemon; compute locally \
     (identical bytes) when none is reachable."
  in
  let kernel =
    Arg.(value & opt (some string) None
         & info [ "k"; "kernel" ] ~doc:"Kernel slug.")
  in
  let config =
    Arg.(value & opt config_conv Cgra_arch.Config.HET2
         & info [ "c"; "config" ] ~doc:"CM configuration.")
  in
  let flow =
    Arg.(value & opt flow_conv Cgra_core.Flow_config.context_aware
         & info [ "f"; "flow" ] ~doc:"Mapping flow: basic, acmap, ecmap or full.")
  in
  let opt =
    Arg.(value & flag
         & info [ "opt" ]
             ~doc:"Map the naive lowering through the cgra_opt pipeline.")
  in
  let faults_file =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~doc:"Map around the fault map in $(docv)."
             ~docv:"FILE")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ]
             ~doc:"Daemon socket (default: cgra_mapd.sock inside the cache \
                   directory)."
             ~docv:"PATH")
  in
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ]
             ~doc:"Connect to a daemon on 127.0.0.1:$(docv) instead of the \
                   Unix socket."
             ~docv:"PORT")
  in
  let emit =
    Arg.(value & opt (some string) None
         & info [ "emit" ] ~doc:"Write the artifact bytes to $(docv)."
             ~docv:"FILE")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print daemon statistics.") in
  let clear =
    Arg.(value & flag
         & info [ "clear" ] ~doc:"Clear the daemon's caches and stored artifacts.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to shut down.")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Check the daemon is alive.") in
  let no_fallback =
    Arg.(value & flag
         & info [ "no-fallback" ]
             ~doc:"Fail (exit 4) instead of computing locally when the \
                   daemon is unreachable.")
  in
  let backend =
    let backend_conv =
      Arg.enum
        [ ("beam", Cgra_core.Flow_config.Beam);
          ("exact", Cgra_core.Flow_config.Exact);
          ("portfolio", Cgra_core.Flow_config.Portfolio) ]
    in
    Arg.(value & opt backend_conv Cgra_core.Flow_config.Beam
         & info [ "backend" ]
             ~doc:"Mapping backend: $(b,beam), $(b,exact) or \
                   $(b,portfolio) — the same semantic knob the $(b,map) \
                   command takes; part of the request key, so each \
                   backend has its own store entry."
             ~docv:"NAME")
  in
  let deadline =
    Arg.(value & opt (some int) None
         & info [ "deadline" ]
             ~doc:"Give up on the mapping after $(docv) milliseconds \
                   (exit 5).  Applies to daemon compute and local \
                   fallback alike; a cached artifact is returned \
                   regardless."
             ~docv:"MS")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ]
             ~doc:"Retry an unreachable or overloaded daemon up to \
                   $(docv) extra times with capped exponential backoff \
                   before giving up (or falling back locally)."
             ~docv:"N")
  in
  let protect =
    protect_arg
      ~doc:
        "Context-memory protection profile of the request ($(b,none), \
         $(b,parity), $(b,secded), or a per-size-class csv).  A serve-key \
         knob: each profile has its own content address and store entry."
  in
  let run kernel config flow opt faults_file socket tcp emit stats clear
      shutdown ping no_fallback deadline_ms retries backend protect =
    let protection = protect_of_flag protect in
    let endpoint =
      match tcp with
      | Some port -> Serve.Client.Tcp ("127.0.0.1", port)
      | None ->
        Serve.Client.Unix_socket
          (match socket with
           | Some p -> p
           | None ->
             Filename.concat (Serve.Store.default_root ()) "cgra_mapd.sock")
    in
    (* Control requests never fall back: they are about the daemon. *)
    let control req render =
      match
        Serve.Client.with_conn endpoint (fun c -> Serve.Client.request c req)
      with
      | Error e | Ok (Error e) ->
        Printf.eprintf "%s\n" e;
        exit 1
      | Ok (Ok resp) -> (
        match render resp with
        | Some line -> print_endline line
        | None ->
          Printf.eprintf "unexpected response\n";
          exit 1)
    in
    if ping then
      control Serve.Protocol.Ping (function
        | Serve.Protocol.Pong -> Some "pong"
        | _ -> None)
    else if stats then
      control Serve.Protocol.Stats (function
        | Serve.Protocol.Stats_r s ->
          let avg total n = if n = 0 then 0.0 else total /. float_of_int n in
          Some
            (Printf.sprintf
               "(hits %d) (misses %d) (unmappable %d) (errors %d) (timeouts \
                %d) (shed %d) (inflight %d)\n\
                store: %d entries, %d bytes\n\
                latency: hit avg %.1f us, miss avg %.1f ms\n\
                uptime: %.1f s"
               s.Serve.Protocol.hits s.Serve.Protocol.misses
               s.Serve.Protocol.unmappable s.Serve.Protocol.errors
               s.Serve.Protocol.timeouts s.Serve.Protocol.shed
               s.Serve.Protocol.inflight s.Serve.Protocol.stored_entries
               s.Serve.Protocol.stored_bytes
               (avg s.Serve.Protocol.hit_us_total s.Serve.Protocol.hits)
               (avg s.Serve.Protocol.miss_us_total s.Serve.Protocol.misses
                /. 1e3)
               s.Serve.Protocol.uptime_s)
        | _ -> None)
    else if clear then
      control Serve.Protocol.Clear (function
        | Serve.Protocol.Cleared { evicted } ->
          Some (Printf.sprintf "cleared (%d artifacts evicted)" evicted)
        | _ -> None)
    else if shutdown then
      control Serve.Protocol.Shutdown (function
        | Serve.Protocol.Shutting_down -> Some "shutting down"
        | _ -> None)
    else begin
      let slug =
        match kernel with
        | Some s -> s
        | None ->
          Printf.eprintf
            "remote: -k KERNEL required (or one of --ping --stats --clear \
             --shutdown)\n";
          exit 1
      in
      let faults =
        match faults_file with
        | None -> []
        | Some file -> (
          match Cgra_arch.Fault_map.load file with
          | Ok fs -> fs
          | Error e ->
            Printf.eprintf "--faults %s: %s\n" file e;
            exit 1)
      in
      let flow = { flow with Cgra_core.Flow_config.backend; protection } in
      let spec =
        match
          Serve.Key.spec_of_bundled ~slug ~config ~flow
            ~opt:(if opt then Serve.Key.Optimized else Serve.Key.Default)
            ~faults
        with
        | Ok s -> s
        | Error e ->
          Printf.eprintf "%s (try: cgra_map list)\n" e;
          exit 1
      in
      match
        Serve.Client.map ~fallback:(not no_fallback) ?deadline_ms ~retries
          endpoint spec
      with
      | Error (Serve.Client.Unreachable { reason; _ }) ->
        (* typed one-liner, own exit code: scripts can tell "no daemon"
           from "daemon said no" *)
        Printf.eprintf "remote: daemon unreachable: %s\n" reason;
        exit 4
      | Error (Serve.Client.Rejected e) ->
        Printf.eprintf "%s\n" e;
        exit 1
      | Ok (Serve.Client.Timed_out { where }) ->
        Printf.eprintf "remote: timed out (%s)\n" where;
        exit 5
      | Ok (Serve.Client.Unmappable { reason }) ->
        Printf.printf "no mapping: %s\n" reason;
        exit 2
      | Ok (Serve.Client.Artifact { bytes; digest; source }) ->
        (* write the artifact before any chatter: a closed stdout pipe
           must not lose the file *)
        (match emit with
         | None -> ()
         | Some file -> write_file_or_die ~what:"--emit" file bytes);
        Printf.printf "artifact %s (%d bytes) via %s\n" digest
          (String.length bytes)
          (match source with
           | Serve.Client.Daemon { cached = true } -> "daemon (cache hit)"
           | Serve.Client.Daemon { cached = false } -> "daemon (computed)"
           | Serve.Client.Local -> "local fallback");
        (* echo the summary header lines up to the tile images *)
        String.split_on_char '\n' bytes
        |> List.to_seq
        |> Seq.take_while (fun l ->
               not (String.length l >= 5 && String.sub l 0 5 = "tiles"))
        |> Seq.iter print_endline;
        (match emit with
         | None -> ()
         | Some file -> Printf.printf "written to %s\n" file)
    end
  in
  Cmd.v (Cmd.info "remote" ~doc)
    Term.(const run $ kernel $ config $ flow $ opt $ faults_file $ socket $ tcp
          $ emit $ stats $ clear $ shutdown $ ping $ no_fallback $ deadline
          $ retries $ backend $ protect)

let artifacts_cmd =
  let doc = "Regenerate the paper's tables and figures." in
  let which = Arg.(value & pos 0 string "all" & info [] ~docv:"ARTIFACT") in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ]
             ~doc:"Evaluate the experiment grid with $(docv) domains before \
                   rendering (default: the machine's recommended domain \
                   count).  Output is byte-identical at any value."
             ~docv:"N")
  in
  let run jobs which =
    (match which with
     | "all" -> Cgra_exp.Runner.warm ?jobs ()
     | _ -> if jobs <> None then Cgra_exp.Runner.warm ?jobs ());
    match which with
    | "all" -> print_string (Cgra_exp.Figures.run_all ())
    | other -> (
      match List.assoc_opt other Cgra_exp.Figures.all_artifacts with
      | Some render -> print_string (render ())
      | None ->
        Printf.eprintf "unknown artifact %s (valid: all %s)\n" other
          (String.concat " " Cgra_exp.Figures.artifact_names);
        exit 1)
  in
  Cmd.v (Cmd.info "artifacts" ~doc) Term.(const run $ jobs $ which)

let () =
  let doc = "context-memory aware mapping tool-chain for CGRAs" in
  let info = Cmd.info "cgra_map" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; map_cmd; fault_cmd; compile_cmd; stats_cmd; remote_cmd;
            artifacts_cmd ]))
