(** Content-addressed identity of a mapping request.

    A key captures everything the artifact bytes depend on: the kernel
    {e source text} (not its name), the initial memory image, the
    architecture configuration, the semantic flow knobs, the lowering/
    optimization mode, the permanent-fault map, and the tool-chain code
    version.  Two requests with equal keys are guaranteed — by the
    keyed-RNG determinism work of PRs 1–6 — to produce byte-identical
    artifacts, which is what makes the on-disk store and the daemon's
    single-flight dedup sound.

    Deliberately excluded from the key (proven bytes-neutral):
    [expand_jobs] (RNG-free parallel expansion) and [optimize] (subsumed
    by the {!opt} mode). *)

type opt = Cgra_verify.Chain.opt = Default | Raw | Optimized
(** Which CDFG the flow maps — the chain's lowering mode, also
    [Cgra_exp.Runner.opt_mode]. *)

val opt_to_string : opt -> string
val opt_of_string : string -> opt option

type kernel =
  | Bundled of { slug : string; source : string }
      (** a kernel from [Cgra_kernels] — its deterministic input image
          and golden model apply *)
  | Inline of { source : string; mem_words : int }
      (** caller-supplied program text, simulated on a zeroed memory of
          [mem_words] words; no golden check *)

type spec = {
  kernel : kernel;
  config : Cgra_arch.Config.name;
  knobs : (string * string) list;
      (** semantic flow knobs as name/value pairs; order-insensitive —
          the canonical form sorts them *)
  opt : opt;
  faults : Cgra_arch.Cgra.fault list;
}

val knobs_of_config : Cgra_core.Flow_config.t -> (string * string) list
(** All semantic knobs of a flow configuration (traversal, filters,
    beam/expansion widths, pruning, seeds, retry and degradation budgets)
    as sorted name/value pairs.  Floats render in round-trip-exact
    ["%.17g"] form. *)

val config_of_knobs :
  (string * string) list -> (Cgra_core.Flow_config.t, string) result
(** Rebuild a flow configuration from knob pairs over
    [Flow_config.default] — the daemon side of {!knobs_of_config}.
    Omitted knobs keep their defaults; an unknown name or unparsable
    value is a typed error (protocol version skew must not silently map
    with wrong knobs). *)

val spec_of_bundled :
  slug:string ->
  config:Cgra_arch.Config.name ->
  flow:Cgra_core.Flow_config.t ->
  opt:opt ->
  faults:Cgra_arch.Cgra.fault list ->
  (spec, string) result
(** Resolve a bundled kernel slug and build the spec the [cgra_map]
    client, the [map --emit] path and the daemon all agree on.  [Error]
    names the unknown slug. *)

val canonical : spec -> string
(** The canonical rendering digested by {!digest}: knobs sorted by name,
    faults sorted, sources replaced by their MD5 — so the digest is
    independent of field arrival order on the wire. *)

val digest : spec -> string
(** MD5 of {!canonical}, lowercase hex — the store key and single-flight
    identity. *)
