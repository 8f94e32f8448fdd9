(* Bring your own kernel: a clipping cross-correlator, end to end.

     dune exec examples/custom_kernel.exe

   Shows the workflow a user follows for a kernel that is not part of the
   paper's suite: write the source, build a golden model in plain OCaml,
   cross-check the reference interpreter, then compare the CGRA against
   the CPU baseline on both cycles and energy. *)

let n = 24
let taps = 4

let source =
  Printf.sprintf
    {|
kernel xcorr {
  const n = %d;
  arr sig @ 0;
  arr ref @ 64;
  arr out @ 96;
  var i, acc;
  i = 0;
  while (i < n) {
    acc = (sig[i] * ref[0] + sig[i + 1] * ref[1])
        + (sig[i + 2] * ref[2] + sig[i + 3] * ref[3]);
    # clip to a signed 12-bit range with min/max intrinsics
    out[i] = max(min(acc, 2047), 0 - 2048);
    i = i + 1;
  }
}
|}
    n

let golden mem =
  let mem = Array.copy mem in
  for i = 0 to n - 1 do
    let acc = ref 0 in
    for t = 0 to taps - 1 do
      acc := !acc + (mem.(i + t) * mem.(64 + t))
    done;
    mem.(96 + i) <- max (min !acc 2047) (-2048)
  done;
  mem

let init_mem () =
  let mem = Array.make 128 0 in
  Cgra_kernels.Inputs.fill mem ~off:0 ~len:(n + taps) ~seed:11 ~range:100;
  Cgra_kernels.Inputs.fill mem ~off:64 ~len:taps ~seed:12 ~range:31;
  mem

let () =
  let cdfg = Cgra_lang.Compile.compile_exn source in
  (* golden cross-check through the reference interpreter first *)
  let mem = init_mem () in
  ignore (Cgra_ir.Interp.run cdfg ~mem);
  assert (mem = golden (init_mem ()));
  Format.printf "interpreter matches the OCaml golden model@.";

  (* CGRA side: map, validate, simulate against the golden model, price *)
  let module Chain = Cgra_verify.Chain in
  let kernel =
    { Chain.name = "xcorr";
      lower =
        (fun ~raw ->
          Result.map_error Cgra_lang.Compile.error_to_string
            (Cgra_lang.Compile.compile ~raw source));
      fresh_mem = init_mem;
      golden = Some golden }
  in
  let c =
    match
      Chain.mapped
        (Chain.run ~config:Cgra_core.Flow_config.context_aware
           (Cgra_arch.Config.cgra Cgra_arch.Config.HET1)
           kernel)
    with
    | Ok c -> c
    | Error reason -> failwith reason
  in
  let cgra_run = c.Chain.sim and cgra_energy = c.Chain.energy in

  (* CPU side *)
  let cpu_prog = Cgra_cpu.Codegen.compile cdfg in
  let mem = init_mem () in
  let cpu_run = Cgra_cpu.Cpu_sim.run cpu_prog ~mem in
  assert (mem = golden (init_mem ()));
  let cpu_energy = Cgra_power.Energy.cpu cpu_run in

  Format.printf "CGRA (HET1, aware flow): %5d cycles, %.3f uJ@."
    cgra_run.Cgra_sim.Simulator.cycles
    (Cgra_power.Energy.to_uj cgra_energy.Cgra_power.Energy.total_pj);
  Format.printf "CPU  (or1k-class):       %5d cycles, %.3f uJ@."
    cpu_run.Cgra_cpu.Cpu_sim.cycles
    (Cgra_power.Energy.to_uj cpu_energy.Cgra_power.Energy.total_pj);
  Format.printf "speed-up %.1fx, energy gain %.1fx@."
    (float_of_int cpu_run.Cgra_cpu.Cpu_sim.cycles
    /. float_of_int cgra_run.Cgra_sim.Simulator.cycles)
    (cpu_energy.Cgra_power.Energy.total_pj
    /. cgra_energy.Cgra_power.Energy.total_pj)
