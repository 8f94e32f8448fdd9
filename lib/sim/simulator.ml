module Isa = Cgra_arch.Isa
module Cgra = Cgra_arch.Cgra
module Cdfg = Cgra_ir.Cdfg
module Opcode = Cgra_ir.Opcode
module Asm = Cgra_asm.Assemble

type activity = {
  alu_ops : int;
  mul_ops : int;
  mem_ops : int;
  moves : int;
  fetches : int;
  awake_cycles : int;
}

let zero_activity =
  { alu_ops = 0; mul_ops = 0; mem_ops = 0; moves = 0; fetches = 0; awake_cycles = 0 }

(* Context-memory protection counters (protected runs only).  [detected]
   counts every non-clean ECC verdict, corrections included; [corrected]
   the subset repaired in place (fetch path and scrub alike);
   [scrub_cycles] the background cycles the scrubber spent scanning
   (one word read each); [scrub_reads] and [written] are per tile, for
   the energy model's scrub-traffic and encode-on-write terms. *)
type ecc = {
  detected : int;
  corrected : int;
  scrub_cycles : int;
  scrub_reads : int array;
  written : int array;
}

type result = {
  cycles : int;
  stall_cycles : int;
  blocks_executed : int;
  instructions : int;
  activity : activity array;
  ecc : ecc option;
}

type error =
  | Crf_out_of_range of { tile : int; block : int; cycle : int; index : int; pool : int }
  | Rf_out_of_range of { tile : int; block : int; cycle : int; reg : int; rf_words : int }
  | Bad_tile of { tile : int; block : int; cycle : int; target : int; tiles : int }
  | Non_neighbour_read of
      { tile : int; block : int; cycle : int; from_tile : int; distance : int }
  | Mem_out_of_bounds of { tile : int; block : int; cycle : int; addr : int; words : int }
  | Bad_arity of { tile : int; block : int; cycle : int; opcode : Opcode.t; args : int }
  | Store_with_dst of { tile : int; block : int; cycle : int }
  | Cond_without_result of { tile : int; block : int; cycle : int }
  | Write_conflict of { tile : int; reg : int; block : int; cycle : int }
  | Missing_condition of { block : int }
  | Unexecuted_instructions of { tile : int; block : int; left : int }
  | Runaway of { max_blocks : int }
  | Uncorrectable_cm of { tile : int; word : int; block : int; cycle : int }
  | Undecodable_cm of { tile : int; word : int; block : int; cycle : int }

let error_to_string = function
  | Crf_out_of_range { tile; block; cycle; index; pool } ->
    Printf.sprintf "tile %d b%d@%d: CRF index %d out of range (pool %d)" tile block
      cycle index pool
  | Rf_out_of_range { tile; block; cycle; reg; rf_words } ->
    Printf.sprintf "tile %d b%d@%d: RF slot %d out of range (rf_words %d)" tile block
      cycle reg rf_words
  | Bad_tile { tile; block; cycle; target; tiles } ->
    Printf.sprintf "tile %d b%d@%d: references tile %d outside the array (%d tiles)"
      tile block cycle target tiles
  | Non_neighbour_read { tile; block; cycle; from_tile; distance } ->
    Printf.sprintf "tile %d b%d@%d: reads non-neighbour tile %d (distance %d)" tile
      block cycle from_tile distance
  | Mem_out_of_bounds { tile; block; cycle; addr; words } ->
    Printf.sprintf "tile %d b%d@%d: memory access out of bounds: %d (mem %d words)"
      tile block cycle addr words
  | Bad_arity { tile; block; cycle; opcode; args } ->
    Printf.sprintf "tile %d b%d@%d: %s with wrong arity (%d args)" tile block cycle
      (Opcode.to_string opcode) args
  | Store_with_dst { tile; block; cycle } ->
    Printf.sprintf "tile %d b%d@%d: store with a destination" tile block cycle
  | Cond_without_result { tile; block; cycle } ->
    Printf.sprintf "tile %d b%d@%d: set_cond on an instruction without result" tile
      block cycle
  | Write_conflict { tile; reg; block; cycle } ->
    Printf.sprintf "tile %d b%d@%d: two same-cycle writes to RF slot %d" tile block
      cycle reg
  | Missing_condition { block } ->
    Printf.sprintf "block %d: branch executed but no condition was set" block
  | Unexecuted_instructions { tile; block; left } ->
    Printf.sprintf "tile %d section b%d: %d unexecuted instructions" tile block left
  | Runaway { max_blocks } ->
    Printf.sprintf "runaway execution (max_blocks = %d)" max_blocks
  | Uncorrectable_cm { tile; word; block; cycle } ->
    Printf.sprintf
      "tile %d b%d@%d: uncorrectable context-memory error at word %d" tile
      block cycle word
  | Undecodable_cm { tile; word; block; cycle } ->
    Printf.sprintf "tile %d b%d@%d: undecodable context word %d" tile block
      cycle word

exception Sim_error of error

let () =
  Printexc.register_printer (function
    | Sim_error e -> Some (Printf.sprintf "Sim_error (%s)" (error_to_string e))
    | _ -> None)

let fail e = raise (Sim_error e)

type rf_fault = { at_cycle : int; fault_tile : int; fault_reg : int; xor_mask : int }

type upset = { up_tile : int; up_word : int; up_bit : int }

type protect = {
  profile : Cgra_arch.Protection.profile;
  upsets : upset list;
  scrub_interval : int;
}

module P = Cgra_arch.Protection
module Ecc = Cgra_asm.Ecc

(* An all-Unprotected profile takes the unprotected path, bit for bit. *)
let protect_of profile =
  if P.is_none profile then None
  else Some { profile; upsets = []; scrub_interval = P.default_scrub_interval }

(* Per-tile execution cursor within a section: remaining pnop cycles and
   the instruction stream. *)
type cursor = { mutable stream : Isa.instr list; mutable sleep : int }

(* Word-indexed cursor for protected runs, which fetch from the (possibly
   upset) stored context image instead of the pristine instruction list. *)
type wcursor = { mutable widx : int; wlimit : int; mutable wsleep : int }

(* Protection-path state.  [stored] is the context image after upsets,
   repaired in place by fetch-path correction and scrubbing; [checks] are
   the write-time check bits from the pristine image. *)
type pstate = {
  kindof : P.kind array;
  checks : int array array;
  stored : int64 array array;
  bases : int array array;  (* word offset of each section, per tile *)
  mutable p_detected : int;
  mutable p_corrected : int;
  mutable p_scrub_cycles : int;
  p_scrub_reads : int array;
  p_written : int array;
  interval : int;
  mutable next_scrub : int;
}

type tstate = {
  rf : int array;
  mutable act : activity;
}

let run ?(mem_ports = 8) ?(max_blocks = 1_000_000) ?(rf_faults = []) ?protect
    (p : Asm.program) ~mem =
  let m = p.Asm.mapping in
  let cgra = m.Cgra_core.Mapping.cgra in
  let cdfg = m.Cgra_core.Mapping.cdfg in
  let nt = Cgra.tile_count cgra in
  List.iter
    (fun f ->
      if f.fault_tile < 0 || f.fault_tile >= nt then
        invalid_arg "Simulator.run: rf_fault tile out of range";
      if f.fault_reg < 0 || f.fault_reg >= cgra.Cgra.rf_words then
        invalid_arg "Simulator.run: rf_fault register out of range")
    rf_faults;
  (* Protected runs fetch through the ECC decoder from a stored image that
     upsets may have corrupted; unprotected runs take the pre-existing
     path untouched. *)
  let prot =
    match protect with
    | None -> None
    | Some pr ->
      let kindof =
        Array.init nt (fun t ->
            P.for_cm pr.profile ~cm_words:(Cgra.base_cm cgra t))
      in
      let images = Array.init nt (fun t -> Asm.encode_tile p.Asm.tiles.(t)) in
      let checks =
        Array.init nt (fun t ->
            Array.map (Ecc.check_bits kindof.(t)) images.(t))
      in
      let stored = Array.map Array.copy images in
      List.iter
        (fun u ->
          if u.up_tile < 0 || u.up_tile >= nt then
            invalid_arg "Simulator.run: upset tile out of range";
          if u.up_word < 0 || u.up_word >= Array.length stored.(u.up_tile) then
            invalid_arg "Simulator.run: upset word out of range";
          if u.up_bit < 0 || u.up_bit > 63 then
            invalid_arg "Simulator.run: upset bit out of range";
          stored.(u.up_tile).(u.up_word) <-
            Int64.logxor
              stored.(u.up_tile).(u.up_word)
              (Int64.shift_left 1L u.up_bit))
        pr.upsets;
      let bases =
        Array.init nt (fun t ->
            let secs = p.Asm.tiles.(t).Asm.sections in
            let b = Array.make (Array.length secs) 0 in
            let acc = ref 0 in
            Array.iteri
              (fun i sec ->
                b.(i) <- !acc;
                acc := !acc + List.length sec)
              secs;
            b)
      in
      Some
        {
          kindof;
          checks;
          stored;
          bases;
          p_detected = 0;
          p_corrected = 0;
          p_scrub_cycles = 0;
          p_scrub_reads = Array.make nt 0;
          p_written = Array.map Array.length images;
          interval = pr.scrub_interval;
          next_scrub =
            (if pr.scrub_interval > 0 then pr.scrub_interval else max_int);
        }
  in
  let tstates =
    Array.init nt (fun _ ->
        { rf = Array.make cgra.Cgra.rf_words 0; act = zero_activity })
  in
  let cycles = ref 0 and stalls = ref 0 and blocks = ref 0 and instrs = ref 0 in
  (* The fault-injection hook: when the global cycle counter crosses a
     fault's [at_cycle] (stall and transition cycles included), XOR the
     mask into the target register.  Deterministic and order-independent:
     faults are applied in list order once per crossing. *)
  let apply_faults lo hi =
    List.iter
      (fun f ->
        if f.at_cycle >= lo && f.at_cycle < hi then
          let rf = tstates.(f.fault_tile).rf in
          rf.(f.fault_reg) <- Opcode.wrap32 (rf.(f.fault_reg) lxor f.xor_mask))
      rf_faults
  in
  let check_tile t ~block ~cycle target =
    if target < 0 || target >= nt then
      fail (Bad_tile { tile = t; block; cycle; target; tiles = nt })
  in
  let check_reg t ~block ~cycle r =
    if r < 0 || r >= cgra.Cgra.rf_words then
      fail (Rf_out_of_range { tile = t; block; cycle; reg = r; rf_words = cgra.Cgra.rf_words })
  in
  let src_value t ~block ~cycle = function
    | Isa.Rf r ->
      check_reg t ~block ~cycle r;
      tstates.(t).rf.(r)
    | Isa.Crf c ->
      let crf = p.Asm.tiles.(t).Asm.crf in
      if c < 0 || c >= Array.length crf then
        fail (Crf_out_of_range { tile = t; block; cycle; index = c; pool = Array.length crf })
      else crf.(c)
    | Isa.Nbr (t', r) ->
      (* neighbour-mux read: start-of-cycle RF state of an adjacent tile *)
      check_tile t ~block ~cycle t';
      let d = Cgra.distance cgra t t' in
      if d > 1 then
        fail (Non_neighbour_read { tile = t; block; cycle; from_tile = t'; distance = d });
      check_reg t ~block ~cycle r;
      tstates.(t').rf.(r)
  in
  let cond = ref None in
  (* Pending register writes applied at end of cycle (two-phase update). *)
  let pending : (int * int * int) list ref = ref [] in
  let write tile reg v = pending := (tile, reg, v) :: !pending in
  let commit ~block ~cycle =
    (* Same-cycle writes to one (tile, reg) have no defined winner in the
       hardware; surface the conflict instead of letting list order pick. *)
    let rec go committed = function
      | [] -> ()
      | (t, r, v) :: rest ->
        if List.exists (fun (t', r') -> t = t' && r = r') committed then
          fail (Write_conflict { tile = t; reg = r; block; cycle });
        tstates.(t).rf.(r) <- Opcode.wrap32 v;
        go ((t, r) :: committed) rest
    in
    go [] !pending;
    pending := []
  in
  let mem_check t ~block ~cycle addr =
    if addr < 0 || addr >= Array.length mem then
      fail (Mem_out_of_bounds { tile = t; block; cycle; addr; words = Array.length mem })
  in
  let bump t f = tstates.(t).act <- f tstates.(t).act in
  let exec_instr t ~block ~cycle instr =
    incr instrs;
    bump t (fun a -> { a with fetches = a.fetches + 1; awake_cycles = a.awake_cycles + 1 });
    match instr with
    | Isa.Ipnop _ -> assert false
    | Isa.Iop { opcode; srcs; dst; set_cond } ->
      let args = List.map (src_value t ~block ~cycle) srcs in
      let result =
        match opcode, args with
        | Opcode.Load, [ addr ] ->
          mem_check t ~block ~cycle addr;
          bump t (fun a -> { a with mem_ops = a.mem_ops + 1 });
          Some mem.(addr)
        | Opcode.Store, [ addr; v ] ->
          mem_check t ~block ~cycle addr;
          bump t (fun a -> { a with mem_ops = a.mem_ops + 1 });
          mem.(addr) <- v;
          None
        | (Opcode.Load | Opcode.Store), args ->
          fail (Bad_arity { tile = t; block; cycle; opcode; args = List.length args })
        | op, args ->
          if List.length args <> Opcode.arity op then
            fail (Bad_arity { tile = t; block; cycle; opcode = op; args = List.length args });
          bump t (fun a ->
              { a with
                alu_ops = a.alu_ops + 1;
                mul_ops = (a.mul_ops + if op = Opcode.Mul then 1 else 0) });
          Some (Opcode.eval op args)
      in
      (match result, dst with
       | Some v, Some d -> check_reg t ~block ~cycle d; write t d v
       | Some _, None -> ()
       | None, Some _ -> fail (Store_with_dst { tile = t; block; cycle })
       | None, None -> ());
      if set_cond then (
        match result with
        | Some v -> cond := Some (v <> 0)
        | None -> fail (Cond_without_result { tile = t; block; cycle }))
    | Isa.Imov { from_tile; from_slot; dst } ->
      bump t (fun a -> { a with moves = a.moves + 1 });
      check_tile t ~block ~cycle from_tile;
      let d = Cgra.distance cgra t from_tile in
      if d > 1 then
        fail (Non_neighbour_read { tile = t; block; cycle; from_tile; distance = d });
      check_reg t ~block ~cycle from_slot;
      check_reg t ~block ~cycle dst;
      let v = tstates.(from_tile).rf.(from_slot) in
      write t dst v
    | Isa.Icopy { src; dst; set_cond } ->
      bump t (fun a -> { a with moves = a.moves + 1 });
      let v = src_value t ~block ~cycle src in
      check_reg t ~block ~cycle dst;
      write t dst v;
      if set_cond then cond := Some (v <> 0)
  in
  let run_section bi =
    let len = p.Asm.section_length.(bi) in
    let cursors =
      Array.init nt (fun t ->
          { stream = p.Asm.tiles.(t).Asm.sections.(bi); sleep = 0 })
    in
    cond := None;
    for cycle = 0 to len - 1 do
      (* Phase 1: execute this cycle's instruction on every tile. *)
      let mem_ops_before =
        Array.fold_left (fun acc ts -> acc + ts.act.mem_ops) 0 tstates
      in
      Array.iteri
        (fun t cur ->
          if cur.sleep > 0 then cur.sleep <- cur.sleep - 1
          else
            match cur.stream with
            | [] -> () (* trailing sleep: clock-gated until section end *)
            | Isa.Ipnop n :: rest ->
              (* fetching the pnop word costs one access, then the tile
                 sleeps *)
              bump t (fun a -> { a with fetches = a.fetches + 1 });
              cur.sleep <- n - 1;
              cur.stream <- rest
            | instr :: rest ->
              exec_instr t ~block:bi ~cycle instr;
              cur.stream <- rest)
        cursors;
      (* Phase 2: commit register writes. *)
      commit ~block:bi ~cycle;
      (* Logarithmic-interconnect arbitration: accesses beyond the port
         count this cycle stall the whole array. *)
      let mem_ops_now =
        Array.fold_left (fun acc ts -> acc + ts.act.mem_ops) 0 tstates
      in
      let this_cycle = mem_ops_now - mem_ops_before in
      let extra = if this_cycle = 0 then 0 else ((this_cycle - 1) / mem_ports) in
      stalls := !stalls + extra;
      let before = !cycles in
      cycles := before + 1 + extra;
      apply_faults before !cycles
    done;
    Array.iteri
      (fun t cur ->
        if cur.stream <> [] then
          fail (Unexecuted_instructions { tile = t; block = bi; left = List.length cur.stream }))
      cursors
  in
  (* Fetch one stored context word through the ECC decoder.  Corrections
     write back; uncorrectable verdicts abort the run with a typed error
     (the hardware's machine-check).  A clean-but-corrupted word (parity
     escape, even flip count) decodes and executes as whatever it now
     encodes — or fails typed if no longer decodable. *)
  let fetch_ps ps t w ~block ~cycle =
    let decode word =
      match Isa.decode word with
      | Ok i -> i
      | Error _ -> fail (Undecodable_cm { tile = t; word = w; block; cycle })
    in
    match ps.kindof.(t) with
    | P.Unprotected -> decode ps.stored.(t).(w)
    | k -> (
      match Ecc.decode k ~data:ps.stored.(t).(w) ~check:ps.checks.(t).(w) with
      | Ecc.Clean -> decode ps.stored.(t).(w)
      | Ecc.Corrected d ->
        ps.p_detected <- ps.p_detected + 1;
        ps.p_corrected <- ps.p_corrected + 1;
        ps.stored.(t).(w) <- d;
        decode d
      | Ecc.Detected ->
        ps.p_detected <- ps.p_detected + 1;
        fail (Uncorrectable_cm { tile = t; word = w; block; cycle }))
  in
  (* One scrubber pass: read every protected word, correct correctable
     errors in place, abort on detected-uncorrectable ones.  Scrub reads
     happen in the background (no execution cycles), but are counted for
     the energy model. *)
  let scrub_pass ps ~block ~cycle =
    Array.iteri
      (fun t words ->
        match ps.kindof.(t) with
        | P.Unprotected -> ()
        | k ->
          Array.iteri
            (fun w data ->
              ps.p_scrub_reads.(t) <- ps.p_scrub_reads.(t) + 1;
              ps.p_scrub_cycles <- ps.p_scrub_cycles + 1;
              match Ecc.decode k ~data ~check:ps.checks.(t).(w) with
              | Ecc.Clean -> ()
              | Ecc.Corrected d ->
                ps.p_detected <- ps.p_detected + 1;
                ps.p_corrected <- ps.p_corrected + 1;
                ps.stored.(t).(w) <- d
              | Ecc.Detected ->
                ps.p_detected <- ps.p_detected + 1;
                fail (Uncorrectable_cm { tile = t; word = w; block; cycle }))
            words)
      ps.stored
  in
  let maybe_scrub ~block ~cycle =
    match prot with
    | None -> ()
    | Some ps ->
      while !cycles >= ps.next_scrub do
        scrub_pass ps ~block ~cycle;
        ps.next_scrub <- ps.next_scrub + ps.interval
      done
  in
  (* The protected twin of [run_section]: same lock-step walk, but
     instructions come from [fetch_ps] over the stored image, so every
     fetch pays an ECC check and sees upsets that escaped correction. *)
  let run_section_protected ps bi =
    let len = p.Asm.section_length.(bi) in
    let cursors =
      Array.init nt (fun t ->
          let base = ps.bases.(t).(bi) in
          {
            widx = base;
            wlimit = base + List.length p.Asm.tiles.(t).Asm.sections.(bi);
            wsleep = 0;
          })
    in
    cond := None;
    for cycle = 0 to len - 1 do
      let mem_ops_before =
        Array.fold_left (fun acc ts -> acc + ts.act.mem_ops) 0 tstates
      in
      Array.iteri
        (fun t cur ->
          if cur.wsleep > 0 then cur.wsleep <- cur.wsleep - 1
          else if cur.widx >= cur.wlimit then ()
          else
            match fetch_ps ps t cur.widx ~block:bi ~cycle with
            | Isa.Ipnop n ->
              bump t (fun a -> { a with fetches = a.fetches + 1 });
              cur.wsleep <- n - 1;
              cur.widx <- cur.widx + 1
            | instr ->
              exec_instr t ~block:bi ~cycle instr;
              cur.widx <- cur.widx + 1)
        cursors;
      commit ~block:bi ~cycle;
      let mem_ops_now =
        Array.fold_left (fun acc ts -> acc + ts.act.mem_ops) 0 tstates
      in
      let this_cycle = mem_ops_now - mem_ops_before in
      let extra = if this_cycle = 0 then 0 else ((this_cycle - 1) / mem_ports) in
      stalls := !stalls + extra;
      let before = !cycles in
      cycles := before + 1 + extra;
      apply_faults before !cycles;
      maybe_scrub ~block:bi ~cycle
    done;
    Array.iteri
      (fun t cur ->
        if cur.widx < cur.wlimit then
          fail
            (Unexecuted_instructions
               { tile = t; block = bi; left = cur.wlimit - cur.widx }))
      cursors
  in
  let rec go bi =
    if !blocks >= max_blocks then fail (Runaway { max_blocks });
    incr blocks;
    (match prot with
     | None -> run_section bi
     | Some ps -> run_section_protected ps bi);
    (* Global controller: one transition cycle per block. *)
    let before = !cycles in
    incr cycles;
    apply_faults before !cycles;
    maybe_scrub ~block:bi ~cycle:0;
    match cdfg.Cdfg.blocks.(bi).Cdfg.terminator with
    | Cdfg.Jump next -> go next
    | Cdfg.Branch (_, bt, be) -> (
      match !cond with
      | None -> fail (Missing_condition { block = bi })
      | Some c -> go (if c then bt else be))
    | Cdfg.Return -> ()
  in
  go cdfg.Cdfg.entry;
  {
    cycles = !cycles;
    stall_cycles = !stalls;
    blocks_executed = !blocks;
    instructions = !instrs;
    activity = Array.map (fun ts -> ts.act) tstates;
    ecc =
      (match prot with
       | None -> None
       | Some ps ->
         Some
           {
             detected = ps.p_detected;
             corrected = ps.p_corrected;
             scrub_cycles = ps.p_scrub_cycles;
             scrub_reads = ps.p_scrub_reads;
             written = ps.p_written;
           });
  }

let total_activity r =
  Array.fold_left
    (fun acc a ->
      {
        alu_ops = acc.alu_ops + a.alu_ops;
        mul_ops = acc.mul_ops + a.mul_ops;
        mem_ops = acc.mem_ops + a.mem_ops;
        moves = acc.moves + a.moves;
        fetches = acc.fetches + a.fetches;
        awake_cycles = acc.awake_cycles + a.awake_cycles;
      })
    zero_activity r.activity
