(* The validated compute chain: typed failures, and one set of bytes for
   one request wherever it is computed. *)

module Chain = Cgra_verify.Chain
module K = Cgra_kernels.Kernel_def
module Runner = Cgra_exp.Runner
module Serve = Cgra_serve

let source =
  {|kernel incr { arr a @ 0; var i;
      for (i = 0; i < 8; i = i + 1) { a[i] = a[i] + 1; } }|}

(* Every golden image this test hands out is off by one in word 0. *)
let wrong_golden mem =
  let mem = Array.copy mem in
  mem.(0) <- mem.(0) + 1000;
  mem

let inline_kernel =
  { Chain.name = "incr";
    lower =
      (fun ~raw ->
        Result.map_error Cgra_lang.Compile.error_to_string
          (Cgra_lang.Compile.compile ~raw source));
    fresh_mem = (fun () -> Array.init 16 Fun.id);
    golden = Some wrong_golden }

let hom64 = Cgra_arch.Config.cgra Cgra_arch.Config.HOM64

let test_golden_mismatch_is_typed () =
  match Chain.run ~config:Cgra_core.Flow_config.basic hom64 inline_kernel with
  | Error Chain.Golden_mismatch -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Chain.failure_to_string f)
  | Ok _ -> Alcotest.fail "a wrong golden image must fail the chain"

let test_correct_golden_maps () =
  let golden mem = Array.mapi (fun i v -> if i < 8 then v + 1 else v) mem in
  match
    Chain.mapped
      (Chain.run ~config:Cgra_core.Flow_config.basic hom64
         { inline_kernel with Chain.golden = Some golden })
  with
  | Ok c ->
    Alcotest.(check bool) "simulated" true
      (c.Chain.sim.Cgra_sim.Simulator.cycles > 0)
  | Error reason -> Alcotest.fail reason

let test_compute_reports_failure () =
  let spec =
    { Serve.Key.kernel = Serve.Key.Inline { source; mem_words = 16 };
      config = Cgra_arch.Config.HOM64;
      knobs = Serve.Key.knobs_of_config Cgra_core.Flow_config.basic;
      opt = Serve.Key.Default;
      faults = [] }
  in
  match Serve.Compute.run_kernel spec inline_kernel with
  | Error e ->
    Alcotest.(check bool) "names the golden model" true
      (Test_verify.contains_sub ~sub:"golden model" e)
  | Ok _ -> Alcotest.fail "a golden mismatch must be an Error"

let test_runner_caches_failure () =
  let fir = Option.get (Cgra_kernels.Kernels.by_slug "fir") in
  let k = { fir with K.slug = "fir-wrong-golden"; golden = wrong_golden } in
  let root = Filename.temp_file "chain-store" "" in
  Sys.remove root;
  let store = Serve.Store.open_ ~root () in
  Serve.Runner_backend.install store;
  Fun.protect
    ~finally:(fun () ->
      Runner.set_artifact_backend None;
      ignore (Serve.Store.clear store))
    (fun () ->
      let before = Runner.compute_count () in
      let attempt () =
        match Runner.run_of k Cgra_arch.Config.HOM64 Runner.Basic with
        | exception Runner.Failed { failure = Chain.Golden_mismatch; _ } -> ()
        | exception e -> raise e
        | _ -> Alcotest.fail "a golden mismatch must raise"
      in
      attempt ();
      attempt ();
      Alcotest.(check int) "computed once, then served as a cached failure" 1
        (Runner.compute_count () - before);
      Alcotest.(check int) "nothing stored" 0 (Serve.Store.entries store))

(* [cgra_map map --emit] with a fault map must write the daemon's bytes:
   energy is priced on the configured array on both paths.  The binary
   and the fault map are test dependencies, beside this executable. *)
let test_map_emit_matches_compute () =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) in
  let fault_map = beside "data/broken.fm" in
  let faults =
    match Cgra_arch.Fault_map.load fault_map with
    | Ok fs -> fs
    | Error e -> Alcotest.fail e
  in
  let spec =
    match
      Serve.Key.spec_of_bundled ~slug:"fir" ~config:Cgra_arch.Config.HOM64
        ~flow:Cgra_core.Flow_config.context_aware ~opt:Serve.Key.Default ~faults
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let daemon =
    match Serve.Compute.run spec with
    | Ok (Serve.Compute.Artifact { bytes; _ }) -> bytes
    | Ok _ -> Alcotest.fail "fir must map around broken.fm"
    | Error e -> Alcotest.fail e
  in
  let file = Filename.temp_file "emit" ".art" in
  let status =
    Sys.command
      (Printf.sprintf "%s map -k fir -c HOM64 -f full --faults %s --emit %s > /dev/null"
         (Filename.quote (beside "../bin/cgra_map.exe"))
         (Filename.quote fault_map) (Filename.quote file))
  in
  Alcotest.(check int) "cgra_map map exits 0" 0 status;
  let emitted = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  Alcotest.(check string) "map --emit bytes = Compute.run bytes" daemon emitted

let test_protect_of () =
  Alcotest.(check bool) "none takes the unprotected path" true
    (Cgra_sim.Simulator.protect_of Cgra_arch.Protection.none = None);
  match Cgra_sim.Simulator.protect_of Cgra_arch.Protection.secded with
  | Some p ->
    Alcotest.(check int) "default scrub cadence"
      Cgra_arch.Protection.default_scrub_interval p.Cgra_sim.Simulator.scrub_interval
  | None -> Alcotest.fail "secded must be protected"

let suite =
  [ ( "chain",
      [ Alcotest.test_case "golden mismatch is a typed failure" `Quick
          test_golden_mismatch_is_typed;
        Alcotest.test_case "correct golden image maps" `Quick
          test_correct_golden_maps;
        Alcotest.test_case "Compute turns a failure into Error" `Quick
          test_compute_reports_failure;
        Alcotest.test_case "Runner raises once, caches, stores nothing" `Quick
          test_runner_caches_failure;
        Alcotest.test_case "map --emit with faults = Compute.run bytes" `Quick
          test_map_emit_matches_compute;
        Alcotest.test_case "protection off builds no protect record" `Quick
          test_protect_of ] ) ]
