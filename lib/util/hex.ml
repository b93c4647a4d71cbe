let digits = "0123456789abcdef"

(* Digit value per byte; -1 for anything [encode] never writes. *)
let values =
  Array.init 256 (fun c -> Option.value (String.index_opt digits (Char.chr c)) ~default:(-1))

let encode s =
  String.init (2 * String.length s) (fun i ->
      let c = Char.code s.[i / 2] in
      digits.[if i land 1 = 0 then c lsr 4 else c land 15])

let decode s =
  let value i = values.(Char.code s.[i]) in
  if String.length s land 1 = 1 || not (String.for_all (fun c -> values.(Char.code c) >= 0) s)
  then None
  else
    Some
      (String.init (String.length s / 2) (fun i ->
           Char.chr ((value (2 * i) lsl 4) lor value ((2 * i) + 1))))
