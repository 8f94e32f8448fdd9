(* What every workload hands back to [Main], and the helpers they share. *)

module Clock = Cgra_util.Clock

(* A wrong answer.  Ops that raise it count as failed, never as timed. *)
exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

type result = {
  setup_s : float;  (** median of the repeated set-ups *)
  attempted : int;
  failed : int;
  errors : string list;  (** one line per failed op, first few only *)
  ops_per_s : float;  (** ops of the timed phase per second *)
  op_ms : float list;  (** latency samples behind [op_p50_ms] / [op_tail_ms] *)
  mapped : (int * float * int) list;
      (** cycles, energy (pJ) and context words of every mapped cell the
          workload produced *)
  rss_mb : float;
  phase_attrs : (string * float) list;
      (** workload-level counters for the traced run's [phase] span *)
  notes : string list;  (** printed with the end-to-end metrics *)
}

let time f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.elapsed_s t0)

(* Run [setup] [n] times, timing each; the median is the reported set-up
   time, so one slow repetition does not move it.  The last result is
   kept, the others are handed to [discard]. *)
let repeated_setup ?(discard = ignore) n setup =
  let rec go i times =
    let v, s = time setup in
    if i + 1 = n then (v, Stats.median (s :: times))
    else begin
      discard v;
      go (i + 1) (s :: times)
    end
  in
  go 0 []

(* Set-up that the timed phase does not consume: [setup] runs [before]
   times and [timed] runs on the last result, then [setup] runs [after]
   more times.  The reported set-up time is the median of all of them, so
   it samples the host's speed over the whole run, not one moment of it. *)
let setup_around ~before ~after setup timed =
  let runs = List.init before (fun _ -> time setup) in
  let r = timed (fst (List.nth runs (before - 1))) in
  let later = List.init after (fun _ -> snd (time setup)) in
  (r, Stats.median (List.map snd runs @ later))

(* Collects failures from any thread: a count plus the first few messages. *)
type failures = { mutable n : int; mutable msgs : string list; m : Mutex.t }

let failures () = { n = 0; msgs = []; m = Mutex.create () }

let record_failure ?(ops = 1) f msg =
  Mutex.lock f.m;
  f.n <- f.n + ops;
  if f.n <= 20 then f.msgs <- msg :: f.msgs;
  Mutex.unlock f.m

type 'a passes = {
  first : 'a option array;  (** each cell's outcome in the first pass *)
  cell_ms : float list;  (** each cell's median time over its samples *)
  ops_per_s : float;
      (** ops of one whole pass per second of the summed [cell_ms], so
          that a cell's weight does not depend on how often it ran *)
  runs : int;  (** cells run, top-up runs included *)
  phase_attrs : (string * float) list;
}

(* A cell is topped up to [min_samples] samples unless its samples
   already add up to [top_up_ms]: one sample of a slow cell spans the
   host's short speed changes, several samples of a fast one are needed
   to do the same. *)
let min_samples = 3
let top_up_ms = 1000.0

(* Runs whole passes over [n] cells until at least [seconds] have passed
   (always one pass), then runs the cells that are still short of samples
   (see [min_samples]) once more at a time until none is; then, when
   [traced], one more pass with tracing on.  Each cell's latency is the
   median of its samples.  [cell ~op ~pass i] runs cell [i] as op [op] on
   the inputs of pass [pass] and returns its outcome; [same o0 o] says
   whether outcome [o] agrees with the first pass's [o0].  A cell that
   raises [Fail], or whose outcome disagrees, fails its [ops] ops. *)
let run_passes ?(same = fun a b -> a = b) ~failures ~seconds ~traced ~ops ~label n cell =
  let first = Array.make n None and lat = Array.make n [] and tries = Array.make n 0 in
  let run_cell ?input p i =
    let input = Option.value input ~default:p in
    tries.(i) <- tries.(i) + 1;
    match time (fun () -> cell ~op:((p * n) + i + 1) ~pass:input i) with
    | o, s -> (
      lat.(i) <- (s *. 1e3) :: lat.(i);
      match first.(i) with
      | None -> first.(i) <- Some o
      | Some o0 ->
        if not (same o0 o) then
          record_failure ~ops failures (label i ^ ": result differs from the first pass"))
    | exception Fail msg -> record_failure ~ops failures (label i ^ ": " ^ msg)
  in
  let short i =
    tries.(i) < min_samples && List.fold_left ( +. ) 0.0 lat.(i) < top_up_ms
  in
  let t0 = Clock.now () in
  let rec timed p =
    for i = 0 to n - 1 do run_cell p i done;
    if Clock.elapsed_s t0 < seconds then timed (p + 1) else p + 1
  in
  let rec top_up p =
    let todo = List.filter short (List.init n Fun.id) in
    if todo <> [] then begin
      List.iter (run_cell p) todo;
      top_up (p + 1)
    end
    else p
  in
  let next = top_up (timed 0) in
  let cell_ms = Array.to_list lat |> List.filter (( <> ) []) |> List.map Stats.median in
  let ops_per_s =
    float_of_int (n * ops) /. (List.fold_left ( +. ) 0.0 cell_ms /. 1e3)
  in
  let phase_attrs =
    if not traced then []
    else begin
      (* only the traced pass's spans are written; it repeats the first
         pass's inputs, so its counts depend on the seed alone *)
      Trace.enabled := true;
      let (), traced_s =
        time (fun () -> for i = 0 to n - 1 do run_cell ~input:0 next i done)
      in
      Trace.enabled := false;
      [ ("untraced_ops_per_s", ops_per_s);
        ("traced_ops_per_s", float_of_int (n * ops) /. traced_s) ]
    end
  in
  { first; cell_ms; ops_per_s; runs = Array.fold_left ( + ) 0 tries; phase_attrs }

let failure_lines f = List.rev f.msgs
let self_rss_mb () = Stats.vm_hwm_mb "self"
