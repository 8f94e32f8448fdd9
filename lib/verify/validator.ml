module M = Cgra_core.Mapping
module Asm = Cgra_asm.Assemble
module Isa = Cgra_arch.Isa
module Cgra = Cgra_arch.Cgra
module Cdfg = Cgra_ir.Cdfg
module Opcode = Cgra_ir.Opcode

type coord = { tile : int; block : int; cycle : int }

type violation =
  | Cm_overflow of { tile : int; words : int; capacity : int }
  | Usage_mismatch of { tile : int; mapping_words : int; program_words : int }
  | Non_neighbour_read of { at : coord; from_tile : int; distance : int }
  | Operand_not_ready of { at : coord; value : string }
  | Bad_crf_index of { at : coord; index : int; pool : int }
  | Crf_pool_overflow of { tile : int; pool : int; capacity : int }
  | Bad_rf_slot of { at : coord; reg : int; rf_words : int }
  | Bad_tile_ref of { at : coord; target : int; tiles : int }
  | Double_issue of { at : coord }
  | Slot_out_of_section of { at : coord; length : int }
  | Section_length_mismatch of
      { block : int; mapping_cycles : int; program_cycles : int }
  | Section_overrun of { tile : int; block : int; duration : int; length : int }
  | Operand_arity of { at : coord; node : int; operands : int; tiles : int }
  | Bad_node_ref of { at : coord; node : int; nodes : int }
  | Bad_home of { sym : int; home : int; tiles : int }
  | Block_index_mismatch of { block : int; bb : int }
  | Encoding_mismatch of { tile : int; word : int; detail : string }
  | Lsu_required of { at : coord; node : int }

let pp_coord c = Printf.sprintf "tile %d b%d@%d" c.tile c.block c.cycle

let to_string = function
  | Cm_overflow { tile; words; capacity } ->
    Printf.sprintf "tile %d: context memory overflow: %d words > %d" tile words
      capacity
  | Usage_mismatch { tile; mapping_words; program_words } ->
    Printf.sprintf
      "tile %d: mapper accounts %d context words, assembled program has %d" tile
      mapping_words program_words
  | Non_neighbour_read { at; from_tile; distance } ->
    Printf.sprintf "%s: reads tile %d at torus distance %d (> 1)" (pp_coord at)
      from_tile distance
  | Operand_not_ready { at; value } ->
    Printf.sprintf "%s: %s is not available before this cycle" (pp_coord at) value
  | Bad_crf_index { at; index; pool } ->
    Printf.sprintf "%s: CRF index %d out of range (pool %d)" (pp_coord at) index pool
  | Crf_pool_overflow { tile; pool; capacity } ->
    Printf.sprintf "tile %d: constant pool has %d entries, CRF holds %d" tile pool
      capacity
  | Bad_rf_slot { at; reg; rf_words } ->
    Printf.sprintf "%s: RF slot %d out of range (rf_words %d)" (pp_coord at) reg
      rf_words
  | Bad_tile_ref { at; target; tiles } ->
    Printf.sprintf "%s: references tile %d outside the %d-tile array" (pp_coord at)
      target tiles
  | Double_issue { at } ->
    Printf.sprintf "%s: two instructions issued on one tile in one cycle"
      (pp_coord at)
  | Slot_out_of_section { at; length } ->
    Printf.sprintf "%s: slot outside the block's %d-cycle section" (pp_coord at)
      length
  | Section_length_mismatch { block; mapping_cycles; program_cycles } ->
    Printf.sprintf "block %d: mapping schedules %d cycles, program section has %d"
      block mapping_cycles program_cycles
  | Section_overrun { tile; block; duration; length } ->
    Printf.sprintf "tile %d section b%d: instructions span %d cycles > length %d"
      tile block duration length
  | Operand_arity { at; node; operands; tiles } ->
    Printf.sprintf "%s: node %d has %d operands but %d operand tiles" (pp_coord at)
      node operands tiles
  | Bad_node_ref { at; node; nodes } ->
    Printf.sprintf "%s: references node %d outside the block's %d nodes"
      (pp_coord at) node nodes
  | Bad_home { sym; home; tiles } ->
    Printf.sprintf "symbol s%d: home tile %d outside the %d-tile array" sym home
      tiles
  | Block_index_mismatch { block; bb } ->
    Printf.sprintf "bbs.(%d) carries block id %d" block bb
  | Encoding_mismatch { tile; word; detail } ->
    Printf.sprintf "tile %d context word %d: encode/decode mismatch: %s" tile word
      detail
  | Lsu_required { at; node } ->
    Printf.sprintf "%s: tile cannot execute node %d (no load-store unit)"
      (pp_coord at) node

let value_to_string = function
  | M.Vnode i -> Printf.sprintf "node %d" i
  | M.Vsym s -> Printf.sprintf "symbol s%d" s
  | M.Vimm k -> Printf.sprintf "imm %d" k

(* ------------------------------------------------------------------ *)
(* Mapping-level checks: schedule legality re-derived from the slots,
   independent of the mapper's own accounting. *)

(* Values a slot makes available on its tile from the next cycle on
   (mirrors the assembler's definition, re-stated here on purpose). *)
let slot_defines (nodes : Cdfg.node array) (sl : M.slot) =
  match sl.M.action with
  | M.Aop { node = j; _ } ->
    if j >= 0 && j < Array.length nodes
       && Opcode.has_result nodes.(j).Cdfg.opcode
    then Some (M.Vnode j)
    else None
  | M.Amove { value; _ } -> Some value
  | M.Acopy value -> Some value

let check_block ~(cgra : Cgra.t) ~homes ~nodes (bm : M.bb_mapping) =
  let nt = Cgra.tile_count cgra in
  let bi = bm.M.bb in
  let out = ref [] in
  let emit v = out := v :: !out in
  let coord (sl : M.slot) = { tile = sl.M.tile; block = bi; cycle = sl.M.cycle } in
  (* Availability: [value] can be read on [t] at the start of [cycle] iff a
     slot on [t] defined it strictly earlier, or it is a symbol live-in on
     its home tile, or an immediate (CRF-resident). *)
  let defined_before t value cycle =
    List.exists
      (fun (sl : M.slot) ->
        sl.M.tile = t && sl.M.cycle < cycle
        && slot_defines nodes sl = Some value)
      bm.M.slots
  in
  let available t value cycle =
    match value with
    | M.Vimm _ -> true
    | M.Vnode _ -> defined_before t value cycle
    | M.Vsym s ->
      (s >= 0 && s < Array.length homes && homes.(s) = t)
      || defined_before t value cycle
  in
  let check_read at t value =
    if not (available t value at.cycle) then
      emit
        (Operand_not_ready
           { at; value = Printf.sprintf "%s on tile %d" (value_to_string value) t })
  in
  let check_neighbour at target =
    if target < 0 || target >= nt then
      emit (Bad_tile_ref { at; target; tiles = nt })
    else
      let d = Cgra.distance cgra at.tile target in
      if d > 1 then emit (Non_neighbour_read { at; from_tile = target; distance = d })
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (sl : M.slot) ->
      let at = coord sl in
      if sl.M.tile < 0 || sl.M.tile >= nt then
        emit (Bad_tile_ref { at; target = sl.M.tile; tiles = nt })
      else begin
        if sl.M.cycle < 0 || sl.M.cycle >= bm.M.length then
          emit (Slot_out_of_section { at; length = bm.M.length });
        (if Hashtbl.mem seen (sl.M.tile, sl.M.cycle) then emit (Double_issue { at })
         else Hashtbl.add seen (sl.M.tile, sl.M.cycle) ());
        match sl.M.action with
        | M.Aop { node = j; operand_tiles } ->
          if j < 0 || j >= Array.length nodes then
            emit (Bad_node_ref { at; node = j; nodes = Array.length nodes })
          else begin
            if not (Cgra.can_execute cgra sl.M.tile nodes.(j).Cdfg.opcode) then
              emit (Lsu_required { at; node = j });
            let operands = nodes.(j).Cdfg.operands in
            if List.length operands <> List.length operand_tiles then
              emit
                (Operand_arity
                   {
                     at;
                     node = j;
                     operands = List.length operands;
                     tiles = List.length operand_tiles;
                   })
            else
              List.iter2
                (fun operand srct ->
                  match operand with
                  | Cdfg.Imm _ -> ()
                  | Cdfg.Node i ->
                    check_neighbour at srct;
                    check_read at srct (M.Vnode i)
                  | Cdfg.Sym s ->
                    check_neighbour at srct;
                    check_read at srct (M.Vsym s))
                operands operand_tiles
          end
        | M.Amove { value; from_tile } ->
          check_neighbour at from_tile;
          if from_tile >= 0 && from_tile < nt then check_read at from_tile value
        | M.Acopy value -> check_read at sl.M.tile value
      end)
    bm.M.slots;
  List.rev !out

(* Independent per-tile context-word recount: instructions plus the pnop
   words needed to cover the idle gaps before each instruction (trailing
   idle cycles sleep for free). *)
let tile_words_of_block (bm : M.bb_mapping) nt =
  let words = Array.make nt 0 in
  let by_tile = Array.make nt [] in
  List.iter
    (fun (sl : M.slot) ->
      if sl.M.tile >= 0 && sl.M.tile < nt then
        by_tile.(sl.M.tile) <- sl.M.cycle :: by_tile.(sl.M.tile))
    bm.M.slots;
  Array.iteri
    (fun t cycles ->
      let cycles = List.sort compare cycles in
      let cursor = ref 0 in
      List.iter
        (fun c ->
          if c > !cursor then words.(t) <- words.(t) + 1 (* pnop *);
          words.(t) <- words.(t) + 1;
          cursor := c + 1)
        cycles)
    by_tile;
  words

let check_mapping (m : M.t) =
  let cgra = m.M.cgra in
  let nt = Cgra.tile_count cgra in
  let out = ref [] in
  let emit v = out := v :: !out in
  Array.iteri
    (fun s home ->
      if home < 0 || home >= nt then emit (Bad_home { sym = s; home; tiles = nt }))
    m.M.homes;
  let words = Array.make nt 0 in
  Array.iteri
    (fun i (bm : M.bb_mapping) ->
      if bm.M.bb <> i then emit (Block_index_mismatch { block = i; bb = bm.M.bb });
      let nodes = m.M.cdfg.Cdfg.blocks.(i).Cdfg.nodes in
      List.iter emit (check_block ~cgra ~homes:m.M.homes ~nodes bm);
      let bw = tile_words_of_block bm nt in
      Array.iteri (fun t w -> words.(t) <- words.(t) + w) bw)
    m.M.bbs;
  Array.iteri
    (fun t w ->
      let cap = cgra.Cgra.tiles.(t).Cgra.cm_words in
      if w > cap then emit (Cm_overflow { tile = t; words = w; capacity = cap }))
    words;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Program-level checks: the assembled artifact against the fabric. *)

let check_src ~(cgra : Cgra.t) ~crf at out = function
  | Isa.Rf r ->
    if r < 0 || r >= cgra.Cgra.rf_words then
      out (Bad_rf_slot { at; reg = r; rf_words = cgra.Cgra.rf_words })
  | Isa.Crf c ->
    if c < 0 || c >= Array.length crf then
      out (Bad_crf_index { at; index = c; pool = Array.length crf })
  | Isa.Nbr (t', r) ->
    let nt = Cgra.tile_count cgra in
    if t' < 0 || t' >= nt then out (Bad_tile_ref { at; target = t'; tiles = nt })
    else begin
      let d = Cgra.distance cgra at.tile t' in
      if d > 1 then out (Non_neighbour_read { at; from_tile = t'; distance = d })
    end;
    if r < 0 || r >= cgra.Cgra.rf_words then
      out (Bad_rf_slot { at; reg = r; rf_words = cgra.Cgra.rf_words })

let check_program (p : Asm.program) =
  let m = p.Asm.mapping in
  let cgra = m.M.cgra in
  let nt = Cgra.tile_count cgra in
  let acc = ref [] in
  let out v = acc := v :: !acc in
  let nblocks = Array.length m.M.bbs in
  (* Section lengths consistent between mapping and program. *)
  for bi = 0 to min nblocks (Array.length p.Asm.section_length) - 1 do
    if p.Asm.section_length.(bi) <> m.M.bbs.(bi).M.length then
      out
        (Section_length_mismatch
           {
             block = bi;
             mapping_cycles = m.M.bbs.(bi).M.length;
             program_cycles = p.Asm.section_length.(bi);
           })
  done;
  Array.iteri
    (fun t (tp : Asm.tile_program) ->
      if Array.length tp.Asm.crf > cgra.Cgra.crf_words then
        out
          (Crf_pool_overflow
             { tile = t; pool = Array.length tp.Asm.crf; capacity = cgra.Cgra.crf_words });
      (* Independent word recount against the CM capacity. *)
      let words =
        Array.fold_left (fun a sec -> a + List.length sec) 0 tp.Asm.sections
      in
      let cap = cgra.Cgra.tiles.(t).Cgra.cm_words in
      if words > cap then out (Cm_overflow { tile = t; words; capacity = cap });
      Array.iteri
        (fun bi sec ->
          let duration =
            List.fold_left (fun a i -> a + Isa.duration i) 0 sec
          in
          if bi < Array.length p.Asm.section_length
             && duration > p.Asm.section_length.(bi)
          then
            out
              (Section_overrun
                 { tile = t; block = bi; duration; length = p.Asm.section_length.(bi) });
          let cycle = ref 0 in
          List.iter
            (fun instr ->
              let at = { tile = t; block = bi; cycle = !cycle } in
              (match instr with
               | Isa.Ipnop _ -> ()
               | Isa.Iop { srcs; dst; _ } ->
                 List.iter (check_src ~cgra ~crf:tp.Asm.crf at out) srcs;
                 (match dst with
                  | Some d ->
                    if d < 0 || d >= cgra.Cgra.rf_words then
                      out (Bad_rf_slot { at; reg = d; rf_words = cgra.Cgra.rf_words })
                  | None -> ())
               | Isa.Imov { from_tile; from_slot; dst } ->
                 if from_tile < 0 || from_tile >= nt then
                   out (Bad_tile_ref { at; target = from_tile; tiles = nt })
                 else begin
                   let d = Cgra.distance cgra t from_tile in
                   if d > 1 then
                     out (Non_neighbour_read { at; from_tile; distance = d })
                 end;
                 List.iter
                   (fun r ->
                     if r < 0 || r >= cgra.Cgra.rf_words then
                       out (Bad_rf_slot { at; reg = r; rf_words = cgra.Cgra.rf_words }))
                   [ from_slot; dst ]
               | Isa.Icopy { src; dst; _ } ->
                 check_src ~cgra ~crf:tp.Asm.crf at out src;
                 if dst < 0 || dst >= cgra.Cgra.rf_words then
                   out (Bad_rf_slot { at; reg = dst; rf_words = cgra.Cgra.rf_words }));
              cycle := !cycle + Isa.duration instr)
            sec)
        tp.Asm.sections;
      (* The binary image must round-trip: what the loader writes is what
         the decoder reads back. *)
      Array.iteri
        (fun w word ->
          match Isa.decode word with
          | Error e -> out (Encoding_mismatch { tile = t; word = w; detail = e })
          | Ok _ -> ())
        (Asm.encode_tile tp))
    p.Asm.tiles;
  (* Cross-check the mapper's accounting against the assembled artifact. *)
  let usage = M.tile_usage m in
  Array.iteri
    (fun t (tp : Asm.tile_program) ->
      let mw = M.usage_total usage.(t) in
      let pw =
        Array.fold_left (fun a sec -> a + List.length sec) 0 tp.Asm.sections
      in
      if mw <> pw then
        out (Usage_mismatch { tile = t; mapping_words = mw; program_words = pw }))
    p.Asm.tiles;
  List.rev !acc

let check (p : Asm.program) = check_mapping p.Asm.mapping @ check_program p
