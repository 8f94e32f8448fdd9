(** SECDED / parity check-bit codec for 64-bit context words.

    Check bits are computed from the stored word and kept {e alongside}
    it, never inside it: context images ({!Assemble.encode_tile}) are
    unchanged by protection, so all protection-off artifacts stay
    byte-identical.

    - [Parity]: one bit; any odd number of flips is {!Detected} (never
      corrected), even flip counts escape as {!Clean}.
    - [Secded]: Hamming(71,64) plus an overall parity bit (8 check bits);
      any single flip is {!Corrected}, any double flip {!Detected}. *)

type verdict =
  | Clean  (** check bits match; the word is served as stored *)
  | Corrected of int64  (** single-bit error; the repaired word *)
  | Detected  (** uncorrectable — the fetch must not be consumed *)

val check_bits : Cgra_arch.Protection.kind -> int64 -> int
(** Check bits of a word under the given protection kind (0 for
    [Unprotected], 1 bit for [Parity], 8 bits for [Secded]). *)

val decode : Cgra_arch.Protection.kind -> data:int64 -> check:int -> verdict
(** Verdict on a possibly corrupted [data] word against check bits
    computed at write time.  [Unprotected] words are always [Clean]. *)
