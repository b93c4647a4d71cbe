(** Lowercase hexadecimal: the one codec behind digest printing
    ({!Oasis_crypto.Sha256.to_hex}) and the textual decision-log export. *)

val encode : string -> string
(** Two lowercase hex digits per byte. *)

val decode : string -> string option
(** Inverse of {!encode}. [None] on odd length or on any character outside
    [0-9a-f] — uppercase included, so every string has at most one
    accepted spelling. *)
