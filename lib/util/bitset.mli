(** Fixed-capacity bit sets, used for directory presence vectors. *)

type t

(** [create n] is an empty set over the universe [0 .. n-1]. *)
val create : int -> t

val capacity : t -> int

(** Membership / insertion / removal raise [Invalid_argument] outside the
    universe. *)
val mem : t -> int -> bool

val add : t -> int -> unit
val remove : t -> int -> unit

(** Remove every element. *)
val clear : t -> unit

val cardinal : t -> int
val is_empty : t -> bool

(** Iterate over members in increasing order, in O(members + capacity / 62)
    time. Each backing word is read once, so [f] must not modify the set. *)
val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Members in increasing order. *)
val elements : t -> int list

(** Word-level walks, for hot loops that must not allocate a closure: each
    set bit of [w = word t k], [k < word_count t], is member
    [k * bits_per_word + lowest_bit w]; clear it with [w land (w - 1)]. *)
val bits_per_word : int
val word_count : t -> int
val word : t -> int -> int
val lowest_bit : int -> int

val copy : t -> t
val equal : t -> t -> bool
