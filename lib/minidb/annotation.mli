(** Provenance annotations: the N[X] semiring of provenance polynomials,
    carried as an unexpanded circuit of ⊕/⊗ gates.

    Following the semiring annotation framework (Green et al.; the paper's
    §VI-A), every base tuple carries the indeterminate [var tid] and the
    executor propagates annotations through operators: joins multiply,
    union/duplicate-elimination/aggregation-grouping add. Each operator
    allocates one gate and shares its inputs' circuits; nothing is
    multiplied out.

    Lineage — the set of base tuples a result depends on (Definition 7) —
    is read off the circuit's support, as are [is_zero] and the fast paths
    of [equal]. Why-provenance, printing, semantic equality and semiring
    evaluation expand the circuit to its normal form ({!Poly}) first.
    Constants may be negative (Z[X]); the structural readings stay exact
    because a circuit with a negative constant is expanded first. *)

type t

val zero : t
val one : t
val var : Tid.t -> t
val of_int : int -> t

val add : t -> t -> t
val mul : t -> t -> t

(** [sum ps] equals [List.fold_left add zero ps] as one gate. *)
val sum : t list -> t

(** Semantic equality of the normal forms. Without negative constants,
    comparing against [zero] or [one] does not expand. *)
val equal : t -> t -> bool

(** Without negative constants, does not expand. *)
val is_zero : t -> bool

(** All variables of the polynomial: the Lineage [Lin] of Definition 7.
    Without negative constants, does not expand. *)
val lineage : t -> Tid.Set.t

(** Why-provenance: the distinct witness sets, one per monomial. *)
val why : t -> Tid.Set.t list

(** Number of distinct derivations (bag multiplicity) when every base
    tuple has multiplicity 1. Evaluated on the circuit. *)
val derivation_count : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** A commutative semiring, for evaluating polynomials under alternative
    provenance semantics. *)
module type SEMIRING = sig
  type elt

  val zero : elt
  val one : elt
  val add : elt -> elt -> elt
  val mul : elt -> elt -> elt
  val equal : elt -> elt -> bool
end

(** [eval (module S) f p] is the image of [p] under the unique semiring
    homomorphism extending the variable assignment [f].
    @raise Invalid_argument on polynomials with negative coefficients
    (semirings have no subtraction). *)
val eval : (module SEMIRING with type elt = 'a) -> (Tid.t -> 'a) -> t -> 'a

module Bool_semiring : SEMIRING with type elt = bool
module Nat_semiring : SEMIRING with type elt = int
module Tropical_semiring : SEMIRING with type elt = int option

module Lineage_semiring : sig
  type elt = Bottom | Set of Tid.Set.t

  include SEMIRING with type elt := elt
end

(** Provenance polynomials in normal form (a sorted sum of monomials with
    collected coefficients), computed eagerly: what a circuit expands to,
    and the oracle the circuit is tested against. *)
module Poly : sig
  type t

  val zero : t
  val one : t
  val var : Tid.t -> t
  val of_int : int -> t
  val add : t -> t -> t
  val mul : t -> t -> t
  val sum : t list -> t
  val equal : t -> t -> bool
  val lineage : t -> Tid.Set.t
  val why : t -> Tid.Set.t list
  val derivation_count : t -> int
  val to_string : t -> string
  val eval : (module SEMIRING with type elt = 'a) -> (Tid.t -> 'a) -> t -> 'a
end
