(* The daemon stack, bottom-up: wire codec and framing, request keys,
   the content-addressed store (including corruption and a concurrent
   writer storm), the shared compute path, the protocol codecs, and an
   end-to-end socket test against a live in-process server. *)

module Serve = Cgra_serve
module Wire = Serve.Wire
module Key = Serve.Key
module Store = Serve.Store
module Compute = Serve.Compute
module Protocol = Serve.Protocol

let fail_on_error = function Ok v -> v | Error e -> Alcotest.fail e

let fail_on_map_error = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Cgra_serve.Client.map_error_to_string e)

(* ---- wire codec ------------------------------------------------------- *)

let rec sexp_equal a b =
  match (a, b) with
  | Wire.Atom x, Wire.Atom y -> String.equal x y
  | Wire.List xs, Wire.List ys ->
    List.length xs = List.length ys && List.for_all2 sexp_equal xs ys
  | _ -> false

let gen_sexp =
  let open QCheck.Gen in
  let atom = map (fun s -> Wire.Atom s) (string_size (int_bound 12)) in
  sized
    (fix (fun self n ->
         if n <= 0 then atom
         else
           frequency
             [
               (2, atom);
               ( 1,
                 map
                   (fun l -> Wire.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
             ]))

let arb_sexp = QCheck.make ~print:Wire.to_string gen_sexp

let test_codec_roundtrip () =
  let prop s =
    match Wire.parse (Wire.to_string s) with
    | Ok s' -> sexp_equal s s'
    | Error _ -> false
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"sexp codec round-trip" arb_sexp prop)

let test_codec_binary_atoms () =
  (* every byte value survives quoting *)
  let all = String.init 256 Char.chr in
  let s = Wire.List [ Wire.Atom "bytes"; Wire.Atom all ] in
  match Wire.parse (Wire.to_string s) with
  | Ok s' -> Alcotest.(check bool) "binary round-trip" true (sexp_equal s s')
  | Error e -> Alcotest.fail e

let test_parse_rejects_garbage () =
  List.iter
    (fun s ->
      match Wire.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "parsed garbage %S" s))
    [ "("; ")"; "(a"; "\"unterminated"; "a b"; ""; "(a) trailing" ]

(* ---- framing ---------------------------------------------------------- *)

let with_pipe f =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let test_frame_roundtrip () =
  with_pipe (fun r w ->
      write_all w (Wire.frame_bytes "hello");
      write_all w (Wire.frame_bytes "");
      Unix.close w;
      (match Wire.read_frame r with
       | Ok p -> Alcotest.(check string) "payload" "hello" p
       | Error e -> Alcotest.fail (Wire.read_error_to_string e));
      (match Wire.read_frame r with
       | Ok p -> Alcotest.(check string) "zero-length payload" "" p
       | Error e -> Alcotest.fail (Wire.read_error_to_string e));
      match Wire.read_frame r with
      | Error Wire.Eof -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected clean EOF")

let test_frame_truncated () =
  with_pipe (fun r w ->
      (* half a length prefix *)
      write_all w "\x00\x00";
      Unix.close w;
      match Wire.read_frame r with
      | Error (Wire.Truncated _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Truncated (prefix)");
  with_pipe (fun r w ->
      (* prefix promises 10 bytes, payload delivers 4 *)
      write_all w "\x00\x00\x00\x0aabcd";
      Unix.close w;
      match Wire.read_frame r with
      | Error (Wire.Truncated { wanted = 10; got = 4 }) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Truncated {10;4}")

let test_frame_oversized () =
  with_pipe (fun r w ->
      let n = Wire.max_frame + 1 in
      let prefix =
        String.init 4 (fun i ->
            Char.chr ((n lsr (8 * (3 - i))) land 0xff))
      in
      write_all w prefix;
      Unix.close w;
      match Wire.read_frame r with
      | Error (Wire.Oversized { length; limit }) ->
        Alcotest.(check int) "length" n length;
        Alcotest.(check int) "limit" Wire.max_frame limit
      | Ok _ | Error _ -> Alcotest.fail "expected Oversized")

(* ---- keys ------------------------------------------------------------- *)

let fir_spec ?(flow = Cgra_core.Flow_config.basic) ?(faults = []) () =
  fail_on_error
    (Key.spec_of_bundled ~slug:"fir" ~config:Cgra_arch.Config.HOM64 ~flow
       ~opt:Key.Default ~faults)

let test_key_order_insensitive () =
  let spec = fir_spec () in
  let rev = { spec with Key.knobs = List.rev spec.Key.knobs } in
  Alcotest.(check string) "knob order does not change the digest"
    (Key.digest spec) (Key.digest rev)

let test_key_sensitivity () =
  let base = Key.digest (fir_spec ()) in
  let differs what spec =
    if String.equal base (Key.digest spec) then
      Alcotest.fail (what ^ " must change the digest")
  in
  differs "a knob value"
    (let s = fir_spec () in
     {
       s with
       Key.knobs =
         List.map
           (fun (n, v) -> if n = "seed" then (n, "12345") else (n, v))
           s.Key.knobs;
     });
  differs "the configuration"
    { (fir_spec ()) with Key.config = Cgra_arch.Config.HET2 };
  differs "the opt mode" { (fir_spec ()) with Key.opt = Key.Optimized };
  differs "the fault map"
    (fir_spec () |> fun s ->
     { s with Key.faults = [ Cgra_arch.Cgra.Dead_tile { tile = 3 } ] });
  differs "the kernel source"
    {
      (fir_spec ()) with
      Key.kernel = Key.Inline { source = "x"; mem_words = 64 };
    }

let test_key_excluded_knobs () =
  (* expand_jobs is bytes-neutral and must not appear *)
  let flow = { Cgra_core.Flow_config.basic with expand_jobs = 7 } in
  Alcotest.(check string) "bytes-neutral fields are not keyed"
    (Key.digest (fir_spec ()))
    (Key.digest (fir_spec ~flow ()))

let test_key_knobs_roundtrip () =
  let knobs = Key.knobs_of_config Cgra_core.Flow_config.context_aware in
  let fc = fail_on_error (Key.config_of_knobs knobs) in
  Alcotest.(check (list (pair string string)))
    "knobs -> config -> knobs round-trip" knobs (Key.knobs_of_config fc);
  (match Key.config_of_knobs [ ("no_such_knob", "1") ] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown knob accepted");
  match Key.config_of_knobs [ ("beam_width", "bogus") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unparsable knob value accepted"

(* ---- store ------------------------------------------------------------ *)

let tmp_counter = ref 0

let fresh_dir prefix =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)

let with_store f =
  let root = fresh_dir "cgra-store-test" in
  let store = Store.open_ ~root () in
  Fun.protect ~finally:(fun () -> ignore (Store.clear store)) (fun () -> f store)

let key_a = String.make 32 'a'

let test_store_roundtrip () =
  with_store (fun store ->
      Alcotest.(check bool) "miss before put" true
        (match Store.find store key_a with Store.Miss -> true | _ -> false);
      let payload = "artifact bytes \x00\xff with binary\n" in
      Store.put store key_a payload;
      (match Store.find store key_a with
       | Store.Hit bytes ->
         Alcotest.(check string) "byte-identical round-trip" payload bytes
       | Store.Miss | Store.Evicted_corrupt _ -> Alcotest.fail "expected hit");
      Alcotest.(check int) "one entry" 1 (Store.entries store);
      (* put is first-writer-wins: a second put must not change the bytes *)
      Store.put store key_a "different";
      match Store.find store key_a with
      | Store.Hit bytes -> Alcotest.(check string) "immutable" payload bytes
      | _ -> Alcotest.fail "expected hit")

let test_store_corruption () =
  with_store (fun store ->
      Store.put store key_a "good payload";
      (* flip bytes in the stored file *)
      let dir = Filename.concat (Store.root store) (String.sub key_a 0 2) in
      let file =
        Filename.concat dir (String.sub key_a 2 (String.length key_a - 2) ^ ".art")
      in
      let oc = open_out_bin file in
      output_string oc "cgra-store v1 0123 12\ncorrupted!!";
      close_out oc;
      (match Store.find store key_a with
       | Store.Evicted_corrupt _ -> ()
       | Store.Hit _ -> Alcotest.fail "served corrupt bytes"
       | Store.Miss -> Alcotest.fail "corrupt entry should be evicted loudly");
      Alcotest.(check bool) "evicted from disk" false (Sys.file_exists file);
      match Store.find store key_a with
      | Store.Miss -> ()
      | _ -> Alcotest.fail "expected miss after eviction")

let test_store_concurrent_writers () =
  with_store (fun store ->
      let payload = String.concat "-" (List.init 64 string_of_int) in
      Cgra_util.Pool.iter ~jobs:8
        (fun _ -> Store.put store key_a payload)
        (List.init 32 Fun.id);
      Alcotest.(check int) "storm leaves exactly one entry" 1
        (Store.entries store);
      match Store.find store key_a with
      | Store.Hit bytes -> Alcotest.(check string) "intact" payload bytes
      | _ -> Alcotest.fail "expected hit after storm")

(* ---- compute ---------------------------------------------------------- *)

let test_compute_deterministic () =
  let spec = fir_spec () in
  match (Compute.run spec, Compute.run spec) with
  | ( Ok (Compute.Artifact { bytes = b1; digest = d1 }),
      Ok (Compute.Artifact { bytes = b2; digest = _ }) ) ->
    Alcotest.(check string) "byte-identical artifacts" b1 b2;
    Alcotest.(check string) "digest is MD5 of the bytes"
      (Digest.to_hex (Digest.string b1))
      d1;
    (* the artifact names its own request key *)
    let key_line = "key " ^ Key.digest spec in
    Alcotest.(check bool) "key digest embedded" true
      (List.mem key_line (String.split_on_char '\n' b1))
  | Ok (Compute.Unmappable { reason }), _ | _, Ok (Compute.Unmappable { reason })
    ->
    Alcotest.fail ("fir should map: " ^ reason)
  | Ok (Compute.Timed_out { where }), _ | _, Ok (Compute.Timed_out { where }) ->
    Alcotest.fail ("no deadline was armed, yet timed out at " ^ where)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_compute_unmappable () =
  let spec =
    fail_on_error
      (Key.spec_of_bundled ~slug:"fft" ~config:Cgra_arch.Config.HOM32
         ~flow:Cgra_core.Flow_config.basic ~opt:Key.Default ~faults:[])
  in
  match Compute.run spec with
  | Ok (Compute.Unmappable _) -> ()
  | Ok (Compute.Artifact _) -> Alcotest.fail "fft should overflow HOM32"
  | Ok (Compute.Timed_out _) -> Alcotest.fail "no deadline was armed"
  | Error e -> Alcotest.fail e

let test_compute_bad_request () =
  let spec =
    {
      Key.kernel = Key.Inline { source = "this does not compile"; mem_words = 64 };
      config = Cgra_arch.Config.HOM64;
      knobs = [];
      opt = Key.Default;
      faults = [];
    }
  in
  match Compute.run spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense source should be a typed request error"

(* ---- protocol --------------------------------------------------------- *)

let roundtrip_request req =
  match Wire.parse (Wire.to_string (Protocol.request_to_sexp req)) with
  | Error e -> Alcotest.fail ("request did not re-parse: " ^ e)
  | Ok sexp -> fail_on_error (Protocol.request_of_sexp sexp)

let test_protocol_requests () =
  (match roundtrip_request Protocol.Ping with
   | Protocol.Ping -> ()
   | _ -> Alcotest.fail "ping");
  (match roundtrip_request Protocol.Stats with
   | Protocol.Stats -> ()
   | _ -> Alcotest.fail "stats");
  let spec =
    fir_spec ~flow:Cgra_core.Flow_config.context_aware
      ~faults:[ Cgra_arch.Cgra.Dead_tile { tile = 5 } ] ()
  in
  (match roundtrip_request (Protocol.Map { spec; deadline_ms = None }) with
   | Protocol.Map { spec = spec'; deadline_ms } ->
     Alcotest.(check string) "map request preserves the key" (Key.digest spec)
       (Key.digest spec');
     Alcotest.(check (option int)) "no deadline survives as none" None
       deadline_ms
   | _ -> Alcotest.fail "map");
  (match roundtrip_request (Protocol.Map { spec; deadline_ms = Some 1500 }) with
   | Protocol.Map { spec = spec'; deadline_ms } ->
     Alcotest.(check string) "deadline does not perturb the key"
       (Key.digest spec) (Key.digest spec');
     Alcotest.(check (option int)) "deadline_ms round-trips" (Some 1500)
       deadline_ms
   | _ -> Alcotest.fail "map with deadline");
  match
    Wire.parse "(map (kernel fir) (config HET2) (deadline_ms 0))"
  with
  | Error e -> Alcotest.fail ("test sexp invalid: " ^ e)
  | Ok sexp -> (
    match Protocol.request_of_sexp sexp with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "non-positive deadline should be rejected")

let test_protocol_map_validation () =
  let reject name text =
    match Wire.parse text with
    | Error e -> Alcotest.fail ("test sexp invalid: " ^ e)
    | Ok sexp -> (
      match Protocol.request_of_sexp sexp with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (name ^ " should be rejected"))
  in
  reject "unknown kernel" "(map (kernel no_such) (config HET2))";
  reject "missing kernel" "(map (config HET2))";
  reject "both kernel and source"
    "(map (kernel fir) (source \"x\") (config HET2))";
  reject "unknown config" "(map (kernel fir) (config NOPE))";
  reject "unknown knob"
    "(map (kernel fir) (config HET2) (knobs (warp_speed 9)))";
  reject "bad fault map" "(map (kernel fir) (config HET2) (faults \"(bogus)\"))"

let test_protocol_responses () =
  let roundtrip resp =
    match Wire.parse (Wire.to_string (Protocol.response_to_sexp resp)) with
    | Error e -> Alcotest.fail ("response did not re-parse: " ^ e)
    | Ok sexp -> fail_on_error (Protocol.response_of_sexp sexp)
  in
  let binary = String.init 256 Char.chr in
  (match
     roundtrip
       (Protocol.Artifact_r
          { digest = "d41d8cd9"; cached = true; bytes = binary })
   with
   | Protocol.Artifact_r { digest; cached; bytes } ->
     Alcotest.(check string) "digest" "d41d8cd9" digest;
     Alcotest.(check bool) "cached" true cached;
     Alcotest.(check string) "binary artifact bytes survive" binary bytes
   | _ -> Alcotest.fail "artifact response");
  (match
     roundtrip
       (Protocol.Stats_r
          {
            Protocol.hits = 3;
            misses = 1;
            unmappable = 0;
            errors = 2;
            timeouts = 5;
            shed = 7;
            inflight = 1;
            stored_entries = 4;
            stored_bytes = 6400;
            hit_us_total = 12.5;
            miss_us_total = 9.75e6;
            uptime_s = 3.25;
          })
   with
   | Protocol.Stats_r s ->
     Alcotest.(check int) "hits" 3 s.Protocol.hits;
     Alcotest.(check int) "timeouts" 5 s.Protocol.timeouts;
     Alcotest.(check int) "shed" 7 s.Protocol.shed;
     Alcotest.(check (float 0.0)) "floats exact" 9.75e6
       s.Protocol.miss_us_total
   | _ -> Alcotest.fail "stats response");
  (match roundtrip (Protocol.Timed_out_r { where = "exact solve b0" }) with
   | Protocol.Timed_out_r { where } ->
     Alcotest.(check string) "timed-out carries where" "exact solve b0" where
   | _ -> Alcotest.fail "timed-out response");
  match roundtrip (Protocol.Overloaded_r { queue_depth = 12 }) with
  | Protocol.Overloaded_r { queue_depth } ->
    Alcotest.(check int) "overloaded carries depth" 12 queue_depth
  | _ -> Alcotest.fail "overloaded response"

(* ---- end-to-end over a live socket ------------------------------------ *)

let test_e2e_daemon () =
  let root = fresh_dir "cgra-mapd-test" in
  let socket_path = fresh_dir "cgra-mapd-test" ^ ".sock" in
  let server =
    Serve.Server.start
      {
        Serve.Server.socket_path;
        tcp_port = None;
        store_root = Some root;
        jobs = Some 2;
        verbose = false;
        deadline_ms = None;
        queue_limit = None;
        io_timeout_s = None;
      }
  in
  let ep = Serve.Client.Unix_socket socket_path in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop server;
      Serve.Server.wait server;
      Cgra_exp.Runner.set_artifact_backend None;
      ignore (Store.clear (Serve.Server.store server)))
    (fun () ->
      let spec = fir_spec () in
      (* two clients race the same cold key: single-flight must hand both
         the same bytes, computed once *)
      let ask () =
        fail_on_map_error (Serve.Client.map ~fallback:false ep spec)
      in
      let d1 = Domain.spawn ask and d2 = Domain.spawn ask in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      let bytes_of = function
        | Serve.Client.Artifact { bytes; _ } -> bytes
        | Serve.Client.Unmappable { reason } -> Alcotest.fail reason
        | Serve.Client.Timed_out { where } ->
          Alcotest.fail ("no deadline was armed, yet timed out at " ^ where)
      in
      let b1 = bytes_of r1 and b2 = bytes_of r2 in
      Alcotest.(check string) "concurrent clients get identical bytes" b1 b2;
      (* identical to the local compute path *)
      (match Compute.run spec with
       | Ok (Compute.Artifact { bytes; _ }) ->
         Alcotest.(check string) "daemon bytes equal local bytes" bytes b1
       | Ok (Compute.Unmappable _ | Compute.Timed_out _) | Error _ ->
         Alcotest.fail "local compute failed");
      (* a third request is a store hit *)
      (match ask () with
       | Serve.Client.Artifact { source = Serve.Client.Daemon { cached }; bytes; _ }
         ->
         Alcotest.(check bool) "third request served from the store" true cached;
         Alcotest.(check string) "hit bytes identical" b1 bytes
       | _ -> Alcotest.fail "expected a daemon artifact");
      (* negative result flows through as a typed answer *)
      let fft =
        fail_on_error
          (Key.spec_of_bundled ~slug:"fft" ~config:Cgra_arch.Config.HOM32
             ~flow:Cgra_core.Flow_config.basic ~opt:Key.Default ~faults:[])
      in
      (match fail_on_map_error (Serve.Client.map ~fallback:false ep fft) with
       | Serve.Client.Unmappable _ -> ()
       | Serve.Client.Artifact _ -> Alcotest.fail "fft@HOM32 should not map"
       | Serve.Client.Timed_out _ -> Alcotest.fail "no deadline was armed");
      (* stats reflect the traffic on one persistent connection *)
      fail_on_error
        (Serve.Client.with_conn ep (fun c ->
             (match fail_on_error (Serve.Client.request c Protocol.Ping) with
              | Protocol.Pong -> ()
              | _ -> Alcotest.fail "expected pong");
             (match fail_on_error (Serve.Client.request c Protocol.Stats) with
              | Protocol.Stats_r s ->
                Alcotest.(check int) "one store hit" 1 s.Protocol.hits;
                Alcotest.(check bool) "misses counted" true
                  (s.Protocol.misses >= 2);
                Alcotest.(check int) "one artifact stored" 1
                  s.Protocol.stored_entries
              | _ -> Alcotest.fail "expected stats");
             match fail_on_error (Serve.Client.request c Protocol.Clear) with
             | Protocol.Cleared { evicted } ->
               Alcotest.(check int) "clear evicts the stored artifact" 1 evicted
             | _ -> Alcotest.fail "expected cleared")))

(* ---- socket-path collision handling ----------------------------------- *)

(* Two daemons on one socket path: the second must refuse with the
   typed [Address_in_use] while the first keeps serving; a stale socket
   file (no listener behind it) must be swept and reused. *)
let test_socket_collision () =
  let root = fresh_dir "cgra-mapd-collide" in
  let socket_path = fresh_dir "cgra-mapd-collide" ^ ".sock" in
  (* plant a stale socket file: bound once, listener long gone *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX socket_path);
  Unix.close stale;
  Alcotest.(check bool) "stale socket file exists" true
    (Sys.file_exists socket_path);
  let server =
    Serve.Server.start
      {
        Serve.Server.socket_path;
        tcp_port = None;
        store_root = Some root;
        jobs = Some 1;
        verbose = false;
        deadline_ms = None;
        queue_limit = None;
        io_timeout_s = None;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop server;
      Serve.Server.wait server;
      Cgra_exp.Runner.set_artifact_backend None;
      ignore (Store.clear (Serve.Server.store server)))
    (fun () ->
      (* a second daemon on the same, now live, socket must fail typed *)
      (match
         Serve.Server.start
           {
             Serve.Server.socket_path;
             tcp_port = None;
             store_root = Some (fresh_dir "cgra-mapd-collide2");
             jobs = Some 1;
             verbose = false;
             deadline_ms = None;
             queue_limit = None;
             io_timeout_s = None;
           }
       with
      | exception Serve.Server.Address_in_use { path } ->
        Alcotest.(check string) "typed collision names the socket"
          socket_path path
      | _server2 -> Alcotest.fail "second daemon must refuse a live socket");
      (* ...and the first daemon still answers *)
      let ep = Serve.Client.Unix_socket socket_path in
      fail_on_error
        (Serve.Client.with_conn ep (fun c ->
             match fail_on_error (Serve.Client.request c Protocol.Ping) with
             | Protocol.Pong -> ()
             | _ -> Alcotest.fail "expected pong")))

let suite =
  [ ( "serve",
      [ Alcotest.test_case "sexp codec round-trip" `Quick test_codec_roundtrip;
        Alcotest.test_case "binary atoms survive quoting" `Quick
          test_codec_binary_atoms;
        Alcotest.test_case "parse rejects garbage" `Quick
          test_parse_rejects_garbage;
        Alcotest.test_case "frame round-trip and EOF" `Quick
          test_frame_roundtrip;
        Alcotest.test_case "truncated frames are typed" `Quick
          test_frame_truncated;
        Alcotest.test_case "oversized frames are rejected" `Quick
          test_frame_oversized;
        Alcotest.test_case "key digest is knob-order-insensitive" `Quick
          test_key_order_insensitive;
        Alcotest.test_case "key digest tracks every semantic input" `Quick
          test_key_sensitivity;
        Alcotest.test_case "bytes-neutral knobs are excluded" `Quick
          test_key_excluded_knobs;
        Alcotest.test_case "knobs round-trip through a config" `Quick
          test_key_knobs_roundtrip;
        Alcotest.test_case "store round-trip, immutable entries" `Quick
          test_store_roundtrip;
        Alcotest.test_case "store evicts corrupt entries" `Quick
          test_store_corruption;
        Alcotest.test_case "store survives a writer storm" `Quick
          test_store_concurrent_writers;
        Alcotest.test_case "compute is byte-deterministic" `Quick
          test_compute_deterministic;
        Alcotest.test_case "compute reports unmappable" `Quick
          test_compute_unmappable;
        Alcotest.test_case "compute rejects bad requests" `Quick
          test_compute_bad_request;
        Alcotest.test_case "protocol request round-trips" `Quick
          test_protocol_requests;
        Alcotest.test_case "protocol validates map requests" `Quick
          test_protocol_map_validation;
        Alcotest.test_case "protocol response round-trips" `Quick
          test_protocol_responses;
        Alcotest.test_case "daemon end-to-end over a socket" `Quick
          test_e2e_daemon;
        Alcotest.test_case "socket collision: stale swept, live refused"
          `Quick test_socket_collision ] ) ]
