(** The compute path behind every cache miss: a {!Key.spec} run through
    {!Cgra_verify.Chain} and rendered with {!Artifact.render}.

    [cgra_mapd] workers and the [cgra_map remote] local fallback call
    {!run}; [cgra_map map --emit] runs the same chain on the same flow
    configuration and renders the same bytes.  The chain maps onto the
    configured array degraded by the spec's fault map, validates,
    simulates (with golden check for bundled kernels) and prices energy
    on the configured array. *)

type outcome =
  | Artifact of { bytes : string; digest : string }
      (** [digest] is MD5 of [bytes] ({!Artifact.digest}) *)
  | Unmappable of { reason : string }
      (** the flow (or register allocation) found no mapping — a valid,
          memoised negative answer *)
  | Timed_out of { where : string }
      (** the deadline fired mid-map; [where] names the boundary that
          observed it.  Unlike [Unmappable] this is {e not} a verdict
          about the kernel and must never be memoised or stored — a
          retry with more time may well map it. *)

val run : ?deadline:Cgra_util.Deadline.t -> Key.spec -> (outcome, string) result
(** [Error] is a request problem (source does not compile, bad knob,
    invalid fault map for the array) or a tool bug surfaced as a typed
    message (invalid artifact, golden-model mismatch, simulator error) —
    never an escaped exception, and never stored.  [deadline] bounds the mapping flow (compile, assembly
    and simulation are not under it — they are orders of magnitude
    cheaper than a hard map); expiry yields [Ok (Timed_out _)]. *)

val run_kernel :
  ?deadline:Cgra_util.Deadline.t ->
  Key.spec ->
  Cgra_verify.Chain.kernel ->
  (outcome, string) result
(** {!run} on a kernel the caller resolved: [kernel] stands in for
    [spec.kernel], every other field (and the embedded key digest) is
    [spec]'s.  {!run} is [run_kernel] on the spec's own kernel. *)
