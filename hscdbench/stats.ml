(** Order statistics over per-op samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(** Samples that must lie strictly beyond a reported percentile, so the
    figure rests on more than a handful of outliers. *)
let min_beyond = 10

(** Nearest-rank [p]-th percentile (0 < p < 100) of [a]. Refused, with
    the reason, when fewer than {!min_beyond} samples lie beyond it. *)
let percentile p a =
  let n = Array.length a in
  if p <= 0. || p >= 100. then Error (Printf.sprintf "percentile %g outside (0, 100)" p)
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    if n - rank < min_beyond then
      Error
        (Printf.sprintf "p%g of %d samples leaves %d beyond it (need %d)" p n (n - rank) min_beyond)
    else Ok (sorted a).(rank - 1)

(** Smallest sample; [nan] when empty. *)
let minimum a = if Array.length a = 0 then nan else Array.fold_left Float.min a.(0) a
