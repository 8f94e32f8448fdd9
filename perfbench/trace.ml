(* Spans the benchmark records around its own calls into each layer.

   A span holds a name, start and end on [Cgra_util.Clock], the span that
   caused it and the op it belongs to, plus counters read from the
   layer's telemetry.  Spans stay in memory while the traced phase runs;
   [write] puts them in one tab-separated file when the run ends, and the
   per-layer metrics are computed from that file ([read], [summarize]).
   Recording is off unless [enabled] is set, so untraced runs pay one
   branch per call. *)

module Clock = Cgra_util.Clock

type span = {
  id : int;
  parent : int;  (** [-1] for an op's root span *)
  op : int;
  name : string;
  t0 : int64;
  t1 : int64;
  attrs : (string * float) list;
}

let enabled = ref false
let lock = Mutex.create ()
let next_id = ref 0
let finished : span list ref = ref []
let pending : (int, (string * float) list) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      next_id := 0;
      finished := [];
      Hashtbl.reset pending)

(* Attach a counter to an open span; a no-op outside a traced phase. *)
let count id key v =
  if id >= 0 then
    locked (fun () ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt pending id) in
        Hashtbl.replace pending id ((key, v) :: prev))

(* [span ~op ?parent name f] runs [f id] inside a span; [id] is [-1] when
   tracing is off, so [count] and child spans degrade to no-ops. *)
let span ~op ?(parent = -1) name f =
  if not !enabled then f (-1)
  else begin
    let id =
      locked (fun () ->
          incr next_id;
          !next_id)
    in
    let t0 = Clock.now_ns () in
    let finish () =
      let t1 = Clock.now_ns () in
      locked (fun () ->
          let attrs = Option.value ~default:[] (Hashtbl.find_opt pending id) in
          Hashtbl.remove pending id;
          finished :=
            { id; parent; op; name; t0; t1; attrs = List.rev attrs }
            :: !finished)
    in
    match f id with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let write path =
  let spans = locked (fun () -> List.rev !finished) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\top\tname\tt0_ns\tt1_ns\tattrs\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\t%s\n" s.id s.parent s.op
            s.name s.t0 s.t1
            (String.concat ";"
               (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) s.attrs)))
        spans)

let read path =
  let parse line =
    match String.split_on_char '\t' line with
    | [ id; parent; op; name; t0; t1; attrs ] ->
      let attrs =
        if attrs = "" then []
        else
          List.map
            (fun kv ->
              match String.index_opt kv '=' with
              | Some i ->
                ( String.sub kv 0 i,
                  float_of_string
                    (String.sub kv (i + 1) (String.length kv - i - 1)) )
              | None -> failwith ("trace: bad attribute " ^ kv))
            (String.split_on_char ';' attrs)
      in
      { id = int_of_string id; parent = int_of_string parent;
        op = int_of_string op; name; t0 = Int64.of_string t0;
        t1 = Int64.of_string t1; attrs }
    | _ -> failwith ("trace: bad line " ^ line)
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.tl
  |> List.filter (( <> ) "")
  |> List.map parse

(* Per span name: calls, summed self time, and each counter's sum and max. *)
type layer = {
  mutable calls : int;
  mutable self_ns : float;
  sums : (string, float) Hashtbl.t;
  maxes : (string, float) Hashtbl.t;
}

type summary = { layers : (string, layer) Hashtbl.t; problems : string list }

(* Self time of a span is its duration minus the union of its children's
   intervals.  Also checks the tree: every parent exists, belongs to the
   same op, and contains its children; self times are non-negative; and
   each op has exactly one root span. *)
let summarize spans =
  let by_id = Hashtbl.create 1024 and children = Hashtbl.create 1024 in
  let roots = Hashtbl.create 256 in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun s ->
      if Hashtbl.mem by_id s.id then problem "span id %d repeated" s.id;
      Hashtbl.replace by_id s.id s;
      if s.t1 < s.t0 then problem "span %d (%s) ends before it starts" s.id s.name;
      if s.parent < 0 then
        Hashtbl.replace roots s.op
          (1 + Option.value ~default:0 (Hashtbl.find_opt roots s.op))
      else Hashtbl.add children s.parent s)
    spans;
  Hashtbl.iter
    (fun op n -> if n <> 1 then problem "op %d has %d root spans" op n)
    roots;
  let layers = Hashtbl.create 32 in
  List.iter
    (fun s ->
      (if s.parent >= 0 then
         match Hashtbl.find_opt by_id s.parent with
         | None -> problem "span %d (%s) has no parent %d" s.id s.name s.parent
         | Some p ->
           if p.op <> s.op then
             problem "span %d (%s) is in op %d, its parent in op %d" s.id s.name
               s.op p.op;
           if s.t0 < p.t0 || s.t1 > p.t1 then
             problem "span %d (%s) lies outside its parent %d (%s)" s.id s.name
               p.id p.name);
      if not (Hashtbl.mem roots s.op) then problem "op %d has no root span" s.op;
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1))
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
          (0L, s.t0) kids
      in
      let self = Int64.sub (Int64.sub s.t1 s.t0) covered in
      if self < 0L then problem "span %d (%s) has negative self time" s.id s.name;
      let l =
        match Hashtbl.find_opt layers s.name with
        | Some l -> l
        | None ->
          let l =
            { calls = 0; self_ns = 0.0; sums = Hashtbl.create 8;
              maxes = Hashtbl.create 8 }
          in
          Hashtbl.replace layers s.name l;
          l
      in
      l.calls <- l.calls + 1;
      l.self_ns <- l.self_ns +. Int64.to_float self;
      List.iter
        (fun (k, v) ->
          Hashtbl.replace l.sums k
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt l.sums k));
          Hashtbl.replace l.maxes k
            (max v (Option.value ~default:neg_infinity (Hashtbl.find_opt l.maxes k))))
        s.attrs)
    spans;
  { layers; problems = List.rev !problems }

let calls sum name =
  match Hashtbl.find_opt sum.layers name with Some l -> l.calls | None -> 0

(* Mean self time per call, in ms; 0 for a layer the workload never calls. *)
let self_ms sum name =
  match Hashtbl.find_opt sum.layers name with
  | Some l when l.calls > 0 -> l.self_ns /. float_of_int l.calls /. 1e6
  | _ -> 0.0

let total_self_s sum name =
  match Hashtbl.find_opt sum.layers name with
  | Some l -> l.self_ns /. 1e9
  | None -> 0.0

let total sum name key =
  match Hashtbl.find_opt sum.layers name with
  | Some l -> Option.value ~default:0.0 (Hashtbl.find_opt l.sums key)
  | None -> 0.0

let peak sum name key =
  match Hashtbl.find_opt sum.layers name with
  | Some l -> Option.value ~default:0.0 (Hashtbl.find_opt l.maxes key)
  | None -> 0.0

(* A root span timed by the caller: requests, whose name depends on the
   answer, and the workload-level [phase] span of op 0. *)
let add ~op ?(attrs = []) name t0 t1 =
  locked (fun () ->
      incr next_id;
      finished := { id = !next_id; parent = -1; op; name; t0; t1; attrs } :: !finished)
