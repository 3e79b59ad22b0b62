(** Fixed-capacity bit sets, used for directory presence vectors.

    A full-map directory keeps one presence bit per processor per memory
    block, so this structure is on the simulator's hot path; it is backed by
    an int array with 62 usable bits per word. Walks visit whole words and
    skip zero ones, so their cost is O(members + capacity / 62), not
    O(capacity). *)

type t = { words : int array; capacity : int }

let bits_per_word = 62

let create capacity =
  assert (capacity >= 0);
  { words = Array.make ((capacity + bits_per_word - 1) / bits_per_word) 0; capacity }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.capacity)

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* SWAR popcount of a word below 2^62 — every word here, since only bits
   0..61 are used; the final byte sum fits in the top 7 bits *)
let popcount w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (w * 0x0101_0101_0101_0101) lsr 56

let word_count t = Array.length t.words
let word t k = t.words.(k)
let lowest_bit w = popcount ((w land (-w)) - 1)

let cardinal t =
  let n = ref 0 in
  for k = 0 to Array.length t.words - 1 do
    n := !n + popcount t.words.(k)
  done;
  !n

let is_empty t =
  let rec from words k = k >= Array.length words || (words.(k) = 0 && from words (k + 1)) in
  from t.words 0

let iter f t =
  for k = 0 to Array.length t.words - 1 do
    let bits = ref t.words.(k) in
    while !bits <> 0 do
      f ((k * bits_per_word) + lowest_bit !bits);
      bits := !bits land (!bits - 1)
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let equal a b = a.capacity = b.capacity && a.words = b.words
