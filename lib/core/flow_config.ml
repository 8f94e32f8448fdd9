type traversal = Forward | Weighted
type backend = Beam | Exact | Portfolio

type t = {
  traversal : traversal;
  acmap : bool;
  ecmap : bool;
  cab : bool;
  beam_width : int;
  expand_per_state : int;
  prune_slack : float;
  keep_prob : float;
  recompute_budget : int;
  home_reserve : int;
  move_weight : int;
  energy_bias_nodes : int;
  retries : int;
  seed : int;
  optimize : bool;
  expand_jobs : int;
  degrade : bool;
  max_attempts : int;
  faults : Cgra_arch.Cgra.fault list;
  backend : backend;
  protection : Cgra_arch.Protection.profile;
}

let default =
  {
    traversal = Forward;
    acmap = false;
    ecmap = false;
    cab = false;
    beam_width = 24;
    expand_per_state = 4;
    prune_slack = 0.15;
    keep_prob = 0.25;
    recompute_budget = 32;
    home_reserve = 0;
    move_weight = 1;
    energy_bias_nodes = 64;
    retries = 0;
    seed = 42;
    optimize = false;
    expand_jobs = 1;
    degrade = false;
    max_attempts = 6;
    faults = [];
    backend = Beam;
    protection = Cgra_arch.Protection.none;
  }

let basic = default

(* The aware steps pay compilation time for design-space exploration
   (Fig 9: ~1.3x / ~1.6x / ~1.8x the basic flow), so they also widen the
   search. *)
(* ACMAP keeps a narrow population: the approximate filter lets
   memory-violating but cheap partial mappings crowd out compliant ones
   (the paper's "abundance of invalid mappings" for this step). *)
let with_acmap =
  { default with traversal = Weighted; acmap = true; beam_width = 12;
    expand_per_state = 4; retries = 1; move_weight = 128 }

(* The exact flows additionally reserve a couple of context words on
   symbol-home tiles for the mandatory live-out writes of later blocks. *)

let with_acmap_ecmap =
  { with_acmap with ecmap = true; beam_width = 40; expand_per_state = 5;
    home_reserve = 2 }

let context_aware =
  { with_acmap_ecmap with cab = true; beam_width = 48; expand_per_state = 6;
    retries = 2 }

let steps_of t =
  let base =
    match t.traversal with
    | Forward -> "basic"
    | Weighted -> "basic+WT"
  in
  let add cond label acc = if cond then acc ^ "+" ^ label else acc in
  base |> add t.acmap "ACMAP" |> add t.ecmap "ECMAP" |> add t.cab "CAB"
  |> add t.optimize "OPT"
  |> add (t.backend = Exact) "SAT"
  |> add (t.backend = Portfolio) "PORT"

let backend_to_string = function
  | Beam -> "beam"
  | Exact -> "exact"
  | Portfolio -> "portfolio"

let backend_of_string = function
  | "beam" -> Some Beam
  | "exact" -> Some Exact
  | "portfolio" -> Some Portfolio
  | _ -> None
