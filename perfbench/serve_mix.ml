(* The [serve_mix] workload: the [cgra_mapd] daemon under a closed loop.

   The bare daemon binary runs in its own process on a private socket and
   store, at its default number of compute domains.  Two clients each
   send their next [Client.map] request only when the last one has been
   answered.  Most requests repeat a warm key (store hits); one step in
   [period] sends a fresh key, the same cell under a new search seed (a
   miss), and a quarter of those go out on both clients at once, so the
   daemon's single-flight joins them.  The seed fixes the whole
   request schedule.  Every artifact is checked byte for byte against an
   in-process [Compute.run] of the same spec. *)

open Common
module Serve = Cgra_serve
module Client = Serve.Client
module Protocol = Serve.Protocol
module FC = Cgra_core.Flow_config
module Config = Cgra_arch.Config
module Rng = Cgra_util.Rng

(* A miss takes about as long as 200 hits, so with one fresh step in [period]
   misses and hits each take about half of the clients' time, and
   [ops_per_s] moves with either path.  The share and the two clients
   are assumptions: there is no record of real [cgra_mapd] traffic to
   take them from. *)
let period = 200

(* Traffic before the timed phase, not measured: the restarted daemon's
   first misses grow its heap. *)
let warm_traffic_s = 1.0

let spec ?(seed = FC.basic.FC.seed) (slug, config) =
  match
    Serve.Key.spec_of_bundled ~slug ~config ~flow:{ FC.basic with FC.seed }
      ~opt:Serve.Key.Default ~faults:[]
  with
  | Ok s -> s
  | Error e -> fail "%s" e

(* Cheap basic-flow cells: the warm key set, and the cells fresh keys
   re-seed. *)
let cells ~smoke =
  let slugs = if smoke then [ "fir"; "dc_filter" ] else [ "fir"; "convolution"; "sep_filter"; "dc_filter" ] in
  List.concat_map (fun s -> [ (s, Config.HOM64); (s, Config.HET2) ]) slugs
  |> Array.of_list

type answer = Bytes of string | Unmappable of string

let local spec =
  match Serve.Compute.run spec with
  | Ok (Serve.Compute.Artifact { bytes; _ }) -> Bytes bytes
  | Ok (Serve.Compute.Unmappable { reason }) -> Unmappable reason
  | Ok (Serve.Compute.Timed_out { where }) -> fail "local compute timed out at %s" where
  | Error e -> fail "local compute: %s" e

(* ---- the daemon process ------------------------------------------------ *)

type daemon = { pid : int; ep : Client.endpoint }

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let request ep req =
  match Client.with_conn ep (fun c -> Client.request c req) with
  | Ok (Ok r) -> Ok r
  | Ok (Error e) | Error e -> Error e

let stats ~failures d =
  match request d.ep Protocol.Stats with
  | Ok (Protocol.Stats_r s) -> Some s
  | Ok _ | Error _ ->
    record_failure failures "the daemon did not answer a stats request";
    None

let reap ~timeout pid =
  let t0 = Clock.now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Clock.elapsed_s t0 < timeout -> Unix.sleepf 0.02; wait ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  wait ()

(* Drained shutdown by request; SIGKILL if the daemon does not exit. *)
let stop d =
  ignore (request d.ep Protocol.Shutdown);
  let clean = reap ~timeout:10.0 d.pid in
  if not clean then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap ~timeout:10.0 d.pid)
  end;
  clean

(* A daemon on [root]/d.sock, with its store in [root]/store. *)
let start ~binary ~root =
  let sock = Filename.concat root "d.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process binary
          [| binary; "--socket"; sock; "--cache"; Filename.concat root "store" |]
          null Unix.stderr Unix.stderr)
  in
  let d = { pid; ep = Client.Unix_socket sock } in
  let t0 = Clock.now () in
  let rec ready () =
    match Client.ping d.ep with
    | Ok _ -> d
    | Error e ->
      if reap ~timeout:0.0 pid then fail "daemon exited before answering: %s" e
      else if Clock.elapsed_s t0 > 20.0 then begin
        ignore (stop d);
        fail "daemon did not answer a ping within 20 s: %s" e
      end
      else begin
        Unix.sleepf 0.001;
        ready ()
      end
  in
  ready ()

(* Kills the daemon unless [f] returns within [limit] seconds.  Every
   call the benchmark makes blocks on a daemon reply, so a daemon that
   stops answering becomes failed requests instead of a hung run.  The
   watchdog waits on a pipe, so it ends as soon as [f] does and adds
   nothing to a timed set-up. *)
let watched ~failures ~limit d f =
  let done_r, done_w = Unix.pipe ~cloexec:true () in
  let dog =
    Thread.create
      (fun () ->
        let t0 = Clock.now () in
        let rec finished () =
          match Unix.select [ done_r ] [] [] (Float.max 0.0 (limit -. Clock.elapsed_s t0)) with
          | [], _, _ -> false
          | _ -> true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> finished ()
        in
        if not (finished ()) then begin
          record_failure failures
            (Printf.sprintf "the daemon had not finished after %.0f s; killed it" limit);
          try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()
        end)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.write_substring done_w "x" 0 1);
      Thread.join dog;
      Unix.close done_r;
      Unix.close done_w)
    f

(* ---- the closed loop ----------------------------------------------------- *)

type step = Warm of int | Fresh of int | Pair of int

(* Step [j] of client [conn].  Each block of [period] steps holds one
   fresh step at a seeded position, the same for both clients; every
   fourth block's fresh step is a pair, the same key from both. *)
let step ~seed ~phase ~nwarm ~conn j =
  let h fmt = Printf.ksprintf (fun k -> Rng.seed_of ~base:seed (phase ^ "/" ^ k)) fmt in
  let block = j / period in
  if j mod period = h "fresh/%d" block mod period then
    if block mod 4 = 3 then Pair (2 * block) else Fresh ((2 * block) + conn)
  else Warm (h "warm/%d/%d" conn j mod nwarm)

(* Fresh key [f]: the cells in turn, so every run computes the same mix,
   each under a seeded search seed. *)
let fresh_spec ~seed ~phase cells f =
  let knob = Rng.seed_of ~base:seed (Printf.sprintf "%s/seed/%d" phase f) in
  spec ~seed:knob cells.(f / 2 mod Array.length cells)

(* Both clients must reach pair step [b] before either sends it. *)
type rendezvous = { m : Mutex.t; c : Condition.t; reached : int array; stopped : bool array }

let meet rv ~conn b =
  Mutex.lock rv.m;
  rv.reached.(conn) <- b + 1;
  Condition.broadcast rv.c;
  let other = 1 - conn in
  while rv.reached.(other) < b + 1 && not rv.stopped.(other) do
    Condition.wait rv.c rv.m
  done;
  let ok = rv.reached.(other) >= b + 1 in
  Mutex.unlock rv.m;
  ok

let leave rv ~conn =
  Mutex.lock rv.m;
  rv.stopped.(conn) <- true;
  Condition.broadcast rv.c;
  Mutex.unlock rv.m

type phase = {
  hits_us : float list;
  misses_us : float list;
  fresh : (Serve.Key.spec * answer * bool) list;  (** spec, answer, cached *)
  attempts : int;
  requests : int;  (** answered as expected *)
  elapsed : float;
  before : Protocol.stats option;
  after : Protocol.stats option;
}

let run_phase ~failures ~seed ~phase ~seconds ~cells ~warm d =
  let nwarm = Array.length warm in
  let rv = { m = Mutex.create (); c = Condition.create (); reached = [| 0; 0 |];
             stopped = [| false; false |] } in
  let out = Mutex.create () in
  let hits = ref [] and misses = ref [] and fresh = ref [] in
  let attempts = Atomic.make 0 and requests = ref 0 in
  let before = stats ~failures d in
  let t0 = Clock.now () in
  let client conn =
    let rec loop j =
      if Clock.elapsed_s t0 >= seconds then leave rv ~conn
      else
        let st = step ~seed ~phase ~nwarm ~conn j in
        let go =
          match st with Pair b -> meet rv ~conn b | Warm _ | Fresh _ -> true
        in
        if not go then leave rv ~conn
        else begin
          let sp, expect =
            match st with
            | Warm w -> (fst warm.(w), Some (snd warm.(w)))
            | Fresh f | Pair f -> (fresh_spec ~seed ~phase cells f, None)
          in
          let op = (2 * j) + conn + 1 in
          Atomic.incr attempts;
          let s0 = Clock.now_ns () in
          let r = Client.map ~fallback:false d.ep sp in
          let s1 = Clock.now_ns () in
          let us = Int64.to_float (Int64.sub s1 s0) /. 1e3 in
          let record ~cached answer =
            Mutex.lock out;
            incr requests;
            if cached then hits := us :: !hits else misses := us :: !misses;
            if expect = None then fresh := (sp, answer, cached) :: !fresh;
            Mutex.unlock out;
            if !Trace.enabled then
              Trace.add ~op (if cached then "client.hit" else "client.miss") s0 s1
          in
          (match r with
           | Ok (Client.Artifact { bytes; source = Client.Daemon { cached }; _ }) -> (
             record ~cached (Bytes bytes);
             match expect with
             | Some ref_bytes when ref_bytes <> bytes ->
               record_failure failures "warm artifact differs from the local compute"
             | _ -> ())
           | Ok (Client.Unmappable { reason }) when expect = None ->
             record ~cached:false (Unmappable reason)
           | Ok (Client.Artifact { source = Client.Local; _ }) ->
             record_failure failures "answered locally, not by the daemon"
           | Ok (Client.Unmappable { reason }) ->
             record_failure failures ("warm key unmappable: " ^ reason)
           | Ok (Client.Timed_out { where }) ->
             record_failure failures ("timed out at " ^ where)
           | Error e -> record_failure failures (Client.map_error_to_string e));
          loop (j + 1)
        end
    in
    loop 0
  in
  let threads = List.map (Thread.create client) [ 0; 1 ] in
  List.iter Thread.join threads;
  let elapsed = Clock.elapsed_s t0 in
  { hits_us = !hits; misses_us = !misses; fresh = !fresh; attempts = Atomic.get attempts; requests = !requests;
    elapsed; before; after = stats ~failures d }

(* Every fresh answer against an in-process compute of the same spec. *)
let verify ~failures ~first_op p =
  let seen = Hashtbl.create 64 in
  List.iteri
    (fun i (sp, answer, _) ->
      let key = Serve.Key.digest sp in
      let expected =
        match Hashtbl.find_opt seen key with
        | Some a -> a
        | None ->
          let a =
            Trace.span ~op:(first_op + i) "serve.compute" (fun _ ->
                try Ok (local sp) with Fail e -> Error e)
          in
          Hashtbl.replace seen key a;
          a
      in
      match expected with
      | Error e -> record_failure failures e
      | Ok a when a <> answer ->
        record_failure failures ("fresh answer differs from the local compute: " ^ key)
      | Ok _ -> ())
    p.fresh

(* Fresh requests that shared another request's compute: answered as
   computed, for a key another request also got computed.  Counted here
   because the daemon's miss counter includes them. *)
let joins p =
  let computed = List.filter_map (fun (sp, _, cached) -> if cached then None else Some (Serve.Key.digest sp)) p.fresh in
  List.length computed - List.length (List.sort_uniq compare computed)

(* Cycles, energy and context words of an artifact, from its header. *)
let artifact_quality bytes =
  let cycles = ref 0 and energy = ref 0.0 and words = ref 0 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "cycles"; n ] -> cycles := int_of_string n
      | [ "energy_pj"; e ] -> energy := float_of_string e
      | [ "tile"; _; "words"; w ] -> words := !words + int_of_string w
      | _ -> ())
    (String.split_on_char '\n' bytes);
  (!cycles, !energy, !words)

(* One request for every warm key.  [~stored] demands that each is
   answered from the store. *)
let warm_up ~stored d warm =
  Array.iter
    (fun (sp, ref_bytes) ->
      match Client.map ~fallback:false d.ep sp with
      | Ok (Client.Artifact { source = Client.Daemon { cached = false }; _ }) when stored ->
        fail "a warm key was not in the store after a restart"
      | Ok (Client.Artifact { bytes; _ }) when bytes = ref_bytes -> ()
      | Ok (Client.Artifact _) -> fail "warm-up artifact differs from the local compute"
      | Ok _ -> fail "warm-up request was not answered with an artifact"
      | Error e -> fail "warm-up: %s" (Client.map_error_to_string e))
    warm

let run ~smoke ~seed ~seconds ~traced ~daemon ~dir =
  let failures = failures () in
  let cells = cells ~smoke in
  let warm =
    Array.map
      (fun c ->
        let sp = spec c in
        match local sp with
        | Bytes b -> (sp, b)
        | Unmappable r -> fail "warm cell %s is unmappable: %s" (fst c) r)
      cells
  in
  let root = Filename.concat dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  remove_tree root;
  Sys.mkdir root 0o700;
  Fun.protect ~finally:(fun () -> remove_tree root) @@ fun () ->
  let stop_checked d =
    if not (stop d) then
      record_failure failures "daemon did not exit on a drained shutdown"
  in
  let started ~stored =
    let d = start ~binary:daemon ~root in
    (try watched ~failures ~limit:60.0 d (fun () -> warm_up ~stored d warm)
     with e -> ignore (stop d); raise e);
    d
  in
  (* A first daemon computes the warm keys into the store, untimed.  The
     timed set-up is a restart on that store: daemon start, store scan,
     ping, and one request for every warm key, each a hit.  It is
     repeated; the last daemon serves the timed phase, the others stop. *)
  stop_checked (started ~stored:false);
  let d, setup_s =
    repeated_setup (if smoke then 1 else 21) ~discard:stop_checked (fun () ->
        started ~stored:true)
  in
  let result =
    Fun.protect
      ~finally:(fun () -> stop_checked d)
      (fun () ->
        let limit = (seconds *. if traced then 2.0 else 1.0) +. 60.0 in
        watched ~failures ~limit d @@ fun () ->
        let w =
          run_phase ~failures ~seed ~phase:"warm" ~seconds:warm_traffic_s ~cells ~warm d
        in
        let p = run_phase ~failures ~seed ~phase:"timed" ~seconds ~cells ~warm d in
        let traced_p =
          if not traced then None
          else begin
            Trace.enabled := true;
            let tp = run_phase ~failures ~seed ~phase:"traced" ~seconds ~cells ~warm d in
            Trace.enabled := false;
            Some tp
          end
        in
        let rss = Stats.vm_hwm_mb (string_of_int d.pid) in
        (w, p, traced_p, rss))
  in
  let w, p, traced_p, rss_mb = result in
  verify ~failures ~first_op:1_000_000 w;
  verify ~failures ~first_op:1_000_000 p;
  let phase_attrs =
    match traced_p with
    | None -> []
    | Some tp ->
      Trace.enabled := true;
      verify ~failures ~first_op:1_000_000 tp;
      Trace.enabled := false;
      let hit_tail, _, _ = Stats.tail p.hits_us in
      [ ("untraced_ops_per_s", float_of_int p.requests /. p.elapsed);
        ("traced_ops_per_s", float_of_int tp.requests /. tp.elapsed);
        ("hit_p50_us", Stats.median p.hits_us);
        ("hit_tail_us", hit_tail);
        ("miss_p50_ms", Stats.median p.misses_us /. 1e3);
        ("singleflight_joins", float_of_int (joins tp)) ]
      @
      match (tp.before, tp.after) with
      | Some b, Some a ->
        [ ("daemon_hits", float_of_int (a.hits - b.hits));
          ("daemon_misses", float_of_int (a.misses - b.misses));
          ("daemon_errors", float_of_int (a.errors - b.errors));
          ("daemon_shed", float_of_int (a.shed - b.shed));
          ("daemon_timeouts", float_of_int (a.timeouts - b.timeouts));
          ("daemon_hit_us", a.hit_us_total -. b.hit_us_total);
          ("daemon_miss_us", a.miss_us_total -. b.miss_us_total);
          ("store_entries", float_of_int a.stored_entries);
          ("store_bytes", float_of_int a.stored_bytes) ]
      | _ -> []
  in
  let traced_attempts = match traced_p with Some tp -> tp.attempts | None -> 0 in
  { setup_s;
    attempted = w.attempts + p.attempts + traced_attempts;
    failed = failures.n;
    errors = failure_lines failures;
    ops_per_s = float_of_int p.requests /. p.elapsed;
    op_ms = List.map (fun us -> us /. 1e3) (p.hits_us @ p.misses_us);
    mapped = Array.to_list (Array.map (fun (_, b) -> artifact_quality b) warm);
    rss_mb;
    phase_attrs;
    notes =
      [ Printf.sprintf "%d of %d requests (%.2f%%) were misses"
          (List.length p.misses_us) p.requests
          (100.0 *. float_of_int (List.length p.misses_us) /. float_of_int (max 1 p.requests)) ] }
