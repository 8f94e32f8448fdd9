(* Order statistics shared by every workload. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile that still has at least 10 samples above it:
   the 11th largest sample.  Returns the value, the percentile it sits at,
   and the sample count.  Below 22 samples the 11th largest would not lie
   above the median, so it falls back to the maximum (percentile 100). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0, 0)
  else if n < 22 then (a.(n - 1), 100, n)
  else (a.(n - 11), 100 * (n - 10) / n, n)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* Peak resident set ([VmHWM]) of a process, in MiB, from /proc. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> acc)
      nan
      (String.split_on_char '\n' text)
