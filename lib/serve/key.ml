module FC = Cgra_core.Flow_config

type opt = Cgra_verify.Chain.opt = Default | Raw | Optimized

let opt_to_string = function
  | Default -> "default"
  | Raw -> "raw"
  | Optimized -> "optimized"

let opt_of_string = function
  | "default" -> Some Default
  | "raw" -> Some Raw
  | "optimized" -> Some Optimized
  | _ -> None

type kernel =
  | Bundled of { slug : string; source : string }
  | Inline of { source : string; mem_words : int }

type spec = {
  kernel : kernel;
  config : Cgra_arch.Config.name;
  knobs : (string * string) list;
  opt : opt;
  faults : Cgra_arch.Cgra.fault list;
}

(* Bump on any change that can alter artifact bytes for an unchanged
   request: search algorithm, assembler encoding, simulator timing,
   energy constants, artifact layout. *)
let code_version = "cgra_mapd-3"

(* ---- flow knobs ------------------------------------------------------- *)

let float_knob f = Printf.sprintf "%.17g" f
let bool_knob b = if b then "true" else "false"

let traversal_to_string = function
  | FC.Forward -> "forward"
  | FC.Weighted -> "weighted"

let knobs_of_config (fc : FC.t) =
  [
    ("traversal", traversal_to_string fc.traversal);
    ("acmap", bool_knob fc.acmap);
    ("ecmap", bool_knob fc.ecmap);
    ("cab", bool_knob fc.cab);
    ("beam_width", string_of_int fc.beam_width);
    ("expand_per_state", string_of_int fc.expand_per_state);
    ("prune_slack", float_knob fc.prune_slack);
    ("keep_prob", float_knob fc.keep_prob);
    ("recompute_budget", string_of_int fc.recompute_budget);
    ("home_reserve", string_of_int fc.home_reserve);
    ("move_weight", string_of_int fc.move_weight);
    ("energy_bias_nodes", string_of_int fc.energy_bias_nodes);
    ("retries", string_of_int fc.retries);
    ("seed", string_of_int fc.seed);
    ("degrade", bool_knob fc.degrade);
    ("max_attempts", string_of_int fc.max_attempts);
    ("backend", FC.backend_to_string fc.backend);
    ("protection", Cgra_arch.Protection.profile_to_string fc.protection);
  ]
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let config_of_knobs knobs =
  let parse_int name v k =
    match int_of_string_opt v with
    | Some i -> Ok (k i)
    | None -> Error (Printf.sprintf "knob %s: not an integer: %S" name v)
  in
  let parse_float name v k =
    match float_of_string_opt v with
    | Some f -> Ok (k f)
    | None -> Error (Printf.sprintf "knob %s: not a float: %S" name v)
  in
  let parse_bool name v k =
    match v with
    | "true" -> Ok (k true)
    | "false" -> Ok (k false)
    | _ -> Error (Printf.sprintf "knob %s: not a boolean: %S" name v)
  in
  List.fold_left
    (fun acc (name, v) ->
      Result.bind acc (fun (fc : FC.t) ->
          match name with
          | "traversal" -> (
            match v with
            | "forward" -> Ok { fc with traversal = FC.Forward }
            | "weighted" -> Ok { fc with traversal = FC.Weighted }
            | _ ->
              Error
                (Printf.sprintf
                   "knob traversal: %S (expected forward|weighted)" v))
          | "acmap" -> parse_bool name v (fun b -> { fc with acmap = b })
          | "ecmap" -> parse_bool name v (fun b -> { fc with ecmap = b })
          | "cab" -> parse_bool name v (fun b -> { fc with cab = b })
          | "beam_width" ->
            parse_int name v (fun i -> { fc with beam_width = i })
          | "expand_per_state" ->
            parse_int name v (fun i -> { fc with expand_per_state = i })
          | "prune_slack" ->
            parse_float name v (fun f -> { fc with prune_slack = f })
          | "keep_prob" ->
            parse_float name v (fun f -> { fc with keep_prob = f })
          | "recompute_budget" ->
            parse_int name v (fun i -> { fc with recompute_budget = i })
          | "home_reserve" ->
            parse_int name v (fun i -> { fc with home_reserve = i })
          | "move_weight" ->
            parse_int name v (fun i -> { fc with move_weight = i })
          | "energy_bias_nodes" ->
            parse_int name v (fun i -> { fc with energy_bias_nodes = i })
          | "retries" -> parse_int name v (fun i -> { fc with retries = i })
          | "seed" -> parse_int name v (fun i -> { fc with seed = i })
          | "degrade" -> parse_bool name v (fun b -> { fc with degrade = b })
          | "max_attempts" ->
            parse_int name v (fun i -> { fc with max_attempts = i })
          | "backend" -> (
            match FC.backend_of_string v with
            | Some b -> Ok { fc with backend = b }
            | None ->
              Error
                (Printf.sprintf
                   "knob backend: %S (expected beam|exact|portfolio)" v))
          | "protection" -> (
            match Cgra_arch.Protection.profile_of_string v with
            | Some p -> Ok { fc with protection = p }
            | None ->
              Error
                (Printf.sprintf "knob protection: %S (expected %s)" v
                   Cgra_arch.Protection.valid_values))
          | _ -> Error (Printf.sprintf "unknown flow knob %S" name)))
    (Ok FC.default) knobs

let spec_of_bundled ~slug ~config ~flow ~opt ~faults =
  match Cgra_kernels.Kernels.by_slug slug with
  | None ->
    Error
      (Printf.sprintf "unknown kernel %S (try: cgra_map list)" slug)
  | Some k ->
    Ok
      {
        kernel = Bundled { slug; source = k.Cgra_kernels.Kernel_def.source };
        config;
        knobs = knobs_of_config flow;
        opt;
        faults;
      }

(* ---- canonical form and digest ---------------------------------------- *)

let md5_hex s = Digest.to_hex (Digest.string s)

let canonical spec =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "cgra-key v1";
  line "code %s" code_version;
  (match spec.kernel with
  | Bundled { slug; source } ->
    line "kernel bundled %s" slug;
    line "source-md5 %s" (md5_hex source)
  | Inline { source; mem_words } ->
    line "kernel inline mem_words=%d" mem_words;
    line "source-md5 %s" (md5_hex source));
  line "config %s" (Cgra_arch.Config.to_string spec.config);
  line "opt %s" (opt_to_string spec.opt);
  List.iter
    (fun (name, v) -> line "knob %s=%s" name v)
    (List.sort (fun (a, _) (b, _) -> compare a b) spec.knobs);
  List.iter
    (fun f -> line "fault %s" f)
    (List.sort compare
       (List.map Cgra_arch.Cgra.fault_to_string spec.faults));
  Buffer.contents buf

let digest spec = md5_hex (canonical spec)
