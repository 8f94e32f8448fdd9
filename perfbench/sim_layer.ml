(* Counters the traced run reads from a [Simulator.result]. *)

let count id (sim : Cgra_sim.Simulator.result) =
  let module S = Cgra_sim.Simulator in
  Trace.count id "cycles" (float_of_int sim.S.cycles);
  Trace.count id "stall_cycles" (float_of_int sim.S.stall_cycles);
  Trace.count id "instructions" (float_of_int sim.S.instructions);
  match sim.S.ecc with
  | None -> ()
  | Some ecc ->
    Trace.count id "ecc_corrected" (float_of_int ecc.S.corrected);
    Trace.count id "ecc_detected" (float_of_int ecc.S.detected);
    Trace.count id "scrub_reads"
      (float_of_int (Array.fold_left ( + ) 0 ecc.S.scrub_reads))
