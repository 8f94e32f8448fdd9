module Chain = Cgra_verify.Chain

type outcome =
  | Artifact of { bytes : string; digest : string }
  | Unmappable of { reason : string }
  | Timed_out of { where : string }

let ( let* ) = Result.bind

let kernel_of (spec : Key.spec) =
  match spec.Key.kernel with
  | Key.Bundled { slug; source = _ } -> (
    match Cgra_kernels.Kernels.by_slug slug with
    | None -> Error (Printf.sprintf "unknown kernel %S" slug)
    | Some k -> Ok (Chain.of_kernel k))
  | Key.Inline { source; mem_words } ->
    Ok
      {
        Chain.name = "inline";
        lower =
          (fun ~raw ->
            Result.map_error Cgra_lang.Compile.error_to_string
              (Cgra_lang.Compile.compile ~raw source));
        fresh_mem = (fun () -> Array.make mem_words 0);
        golden = None;
      }

let run_kernel ?deadline (spec : Key.spec) kernel =
  let* fc = Key.config_of_knobs spec.Key.knobs in
  let config = { fc with Cgra_core.Flow_config.faults = spec.Key.faults } in
  match
    Chain.run ?deadline ~opt:spec.Key.opt ~config
      (Cgra_arch.Config.cgra spec.Key.config)
      kernel
  with
  | Error f ->
    Error
      (Printf.sprintf "%s: %s" kernel.Chain.name (Chain.failure_to_string f))
  | Ok (Chain.Timed_out { where }) -> Ok (Timed_out { where })
  | Ok (Chain.Unmappable { failure; _ }) ->
    Ok (Unmappable { reason = failure.Cgra_core.Flow.reason })
  | Ok (Chain.Mapped m) ->
    let bytes =
      Artifact.render ~key_digest:(Key.digest spec) ~spec m.Chain.program
        m.Chain.sim m.Chain.energy
    in
    Ok (Artifact { bytes; digest = Artifact.digest bytes })

let run ?deadline spec =
  let* kernel = kernel_of spec in
  run_kernel ?deadline spec kernel
