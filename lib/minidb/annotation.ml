(** Provenance annotations: the N[X] semiring of provenance polynomials,
    carried as an unexpanded circuit of ⊕/⊗ gates.

    Following the semiring annotation framework (Green et al.; the paper's
    §VI-A), every base tuple carries the indeterminate [Var tid] and the
    executor propagates annotations through operators: joins multiply,
    union/duplicate-elimination/aggregation-grouping add. Each operator
    allocates one gate over its inputs' circuits, which it shares
    physically; nothing is multiplied out. The consumers on the hot path
    need only Lineage (Definition 7), which is read off the circuit's
    support. Why-provenance, derivation counts, printing, equality and
    semiring evaluation are defined on the normal form and expand the
    circuit into [Poly] first (as in ProvSQL, a semiring is evaluated only
    when a consumer asks). *)

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

(** Polynomials in normal form: the expansion target of circuits and the
    oracle the circuit is tested against. *)
module Poly = struct
  (** A monomial is a coefficient and a sorted multiset of variables with
      positive exponents. *)
  type mono = { coeff : int; vars : (Tid.t * int) list }

  (** Monomials sorted by their variable part, no duplicate variable parts,
      no zero coefficients. *)
  type t = mono list

  let zero : t = []
  let one : t = [ { coeff = 1; vars = [] } ]
  let var tid : t = [ { coeff = 1; vars = [ (tid, 1) ] } ]
  let of_int n : t = if n = 0 then [] else [ { coeff = n; vars = [] } ]

  let compare_vars = List.compare (fun (a, i) (b, j) ->
      match Tid.compare a b with 0 -> Int.compare i j | c -> c)

  (* Merge-add two normalized polynomials. *)
  let add (p : t) (q : t) : t =
    let rec go p q =
      match (p, q) with
      | [], r | r, [] -> r
      | m :: p', n :: q' -> (
        match compare_vars m.vars n.vars with
        | 0 ->
          let c = m.coeff + n.coeff in
          if c = 0 then go p' q' else { m with coeff = c } :: go p' q'
        | c when c < 0 -> m :: go p' q
        | _ -> n :: go p q')
    in
    go p q

  (** Sum a list of polynomials in O(N log N) (folding [add] pairwise is
      quadratic in the number of monomials). *)
  let sum (ps : t list) : t =
    let monos = List.concat ps in
    let sorted =
      List.sort (fun (m : mono) (n : mono) -> compare_vars m.vars n.vars) monos
    in
    let flush acc = function
      | Some m when m.coeff <> 0 -> m :: acc
      | _ -> acc
    in
    let acc, pending =
      List.fold_left
        (fun (acc, pending) (n : mono) ->
          match pending with
          | Some m when compare_vars m.vars n.vars = 0 ->
            (acc, Some { m with coeff = m.coeff + n.coeff })
          | _ -> (flush acc pending, Some n))
        ([], None) sorted
    in
    List.rev (flush acc pending)

  (* Multiply two monomials: multiply coefficients, merge variable multisets
     adding exponents. *)
  let mul_mono m n =
    let rec merge a b =
      match (a, b) with
      | [], r | r, [] -> r
      | (x, i) :: a', (y, j) :: b' -> (
        match Tid.compare x y with
        | 0 -> (x, i + j) :: merge a' b'
        | c when c < 0 -> (x, i) :: merge a' b
        | _ -> (y, j) :: merge a b')
    in
    { coeff = m.coeff * n.coeff; vars = merge m.vars n.vars }

  let mul (p : t) (q : t) : t =
    List.fold_left
      (fun acc m -> List.fold_left (fun acc n -> add acc [ mul_mono m n ]) acc q)
      zero p

  let equal (p : t) (q : t) =
    List.length p = List.length q
    && List.for_all2
         (fun m n -> m.coeff = n.coeff && compare_vars m.vars n.vars = 0)
         p q

  let is_zero (p : t) = p = []

  let lineage (p : t) : Tid.Set.t =
    List.fold_left
      (fun acc m ->
        List.fold_left (fun acc (v, _) -> Tid.Set.add v acc) acc m.vars)
      Tid.Set.empty p

  let why (p : t) : Tid.Set.t list =
    List.map (fun m -> Tid.Set.of_list (List.map fst m.vars)) p
    |> List.sort_uniq Tid.Set.compare

  let derivation_count (p : t) : int =
    List.fold_left (fun acc m -> acc + m.coeff) 0 p

  let pp ppf (p : t) =
    let pp_mono ppf m =
      if m.vars = [] then Format.pp_print_int ppf m.coeff
      else begin
        if m.coeff <> 1 then Format.fprintf ppf "%d*" m.coeff;
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "*")
          (fun ppf (v, e) ->
            if e = 1 then Tid.pp ppf v else Format.fprintf ppf "%a^%d" Tid.pp v e)
          ppf m.vars
      end
    in
    match p with
    | [] -> Format.pp_print_string ppf "0"
    | _ ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ")
        pp_mono ppf p

  let to_string p = Format.asprintf "%a" pp p

  let eval (type a) (module S : SEMIRING with type elt = a) (f : Tid.t -> a)
      (p : t) : a =
    let pow base e =
      let rec go acc e = if e = 0 then acc else go (S.mul acc base) (e - 1) in
      go S.one e
    in
    let nat n =
      (* semirings have no additive inverses: evaluation is only defined for
         N[X] polynomials *)
      if n < 0 then
        invalid_arg "Annotation.eval: negative coefficient outside N[X]";
      let rec go acc n = if n = 0 then acc else go (S.add acc S.one) (n - 1) in
      go S.zero n
    in
    List.fold_left
      (fun acc m ->
        let mv =
          List.fold_left (fun acc (v, e) -> S.mul acc (pow (f v) e)) S.one m.vars
        in
        S.add acc (S.mul (nat m.coeff) mv))
      S.zero p
end

(** The circuit. The smart constructors keep three invariants: [Zero]
    never occurs under a gate, [One] never under a [Mul], and [Const] is
    never 0 or 1. Without negative constants every circuit other than
    [Zero] and [One] therefore denotes a polynomial other than 0 and 1,
    and its variables are exactly those of its normal form. *)
type t =
  | Zero
  | One
  | Var of Tid.t
  | Const of int
  | Add of t * t
  | Sum of t list  (** two or more summands *)
  | Mul of t * t

let zero = Zero
let one = One
let var tid = Var tid
let of_int = function 0 -> Zero | 1 -> One | n -> Const n

let add p q =
  match (p, q) with Zero, r | r, Zero -> r | _ -> Add (p, q)

let mul p q =
  match (p, q) with
  | Zero, _ | _, Zero -> Zero
  | One, r | r, One -> r
  | _ -> Mul (p, q)

let sum ps =
  let ps = if List.memq Zero ps then List.filter (( != ) Zero) ps else ps in
  match ps with [] -> Zero | [ p ] -> p | ps -> Sum ps

let rec expand = function
  | Zero -> Poly.zero
  | One -> Poly.one
  | Var v -> Poly.var v
  | Const n -> Poly.of_int n
  | Add (p, q) -> Poly.add (expand p) (expand q)
  | Sum ps -> Poly.sum (List.map expand ps)
  | Mul (p, q) -> Poly.mul (expand p) (expand q)

(* Only a negative constant lets terms cancel, so only a signed circuit
   may disagree with its normal form on zero-ness or on its variables. *)
let rec signed = function
  | Zero | One | Var _ -> false
  | Const n -> n < 0
  | Add (p, q) | Mul (p, q) -> signed p || signed q
  | Sum ps -> List.exists signed ps

let is_zero = function Zero -> true | p -> signed p && Poly.is_zero (expand p)

let equal p q =
  let rigid = function Zero | One -> true | _ -> false in
  if p == q then true
  else if (rigid p || rigid q) && not (signed p || signed q) then false
  else Poly.equal (expand p) (expand q)

(** All variables of the annotation: the Lineage of the annotated tuple
    (Definition 7's [Lin]), collected from the circuit's support. *)
let lineage (p : t) : Tid.Set.t =
  let cancels = ref false in
  let rec go acc = function
    | Zero | One -> acc
    | Const n ->
      if n < 0 then cancels := true;
      acc
    | Var v -> Tid.Set.add v acc
    | Add (p, q) | Mul (p, q) -> go (go acc p) q
    | Sum ps -> List.fold_left go acc ps
  in
  let support = go Tid.Set.empty p in
  if !cancels then Poly.lineage (expand p) else support

(** Why-provenance: the witness sets, one per distinct monomial. *)
let why p = Poly.why (expand p)

(** Number of derivations when every base tuple has multiplicity 1: the
    image under the all-ones assignment, a ring homomorphism, so the
    circuit is evaluated directly without expansion. *)
let rec derivation_count = function
  | Zero -> 0
  | One | Var _ -> 1
  | Const n -> n
  | Add (p, q) -> derivation_count p + derivation_count q
  | Sum ps -> List.fold_left (fun acc p -> acc + derivation_count p) 0 ps
  | Mul (p, q) -> derivation_count p * derivation_count q

let pp ppf p = Poly.pp ppf (expand p)
let to_string p = Poly.to_string (expand p)

(** Evaluate [p] under assignment [f] in semiring [S] (the unique semiring
    homomorphism extending [f]), on the normal form. *)
let eval s f p = Poly.eval s f (expand p)

(** The boolean semiring: evaluates to set-semantics membership. *)
module Bool_semiring = struct
  type elt = bool

  let zero = false
  let one = true
  let add = ( || )
  let mul = ( && )
  let equal = Bool.equal
end

(** The counting semiring (natural numbers): bag-semantics multiplicity. *)
module Nat_semiring = struct
  type elt = int

  let zero = 0
  let one = 1
  let add = ( + )
  let mul = ( * )
  let equal = Int.equal
end

(** The tropical semiring (min, +) over int-with-infinity: cost of the
    cheapest derivation. *)
module Tropical_semiring = struct
  type elt = int option  (** [None] is +infinity *)

  let zero = None
  let one = Some 0

  let add a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)

  let mul a b =
    match (a, b) with
    | None, _ | _, None -> None
    | Some a, Some b -> Some (a + b)

  let equal = Option.equal Int.equal
end

(** The Lineage semiring over a fixed variable universe: sets of variables
    where both [add] and [mul] are union (with the usual 0/1 adjustments
    absorbed by representing 0 as a distinguished bottom). *)
module Lineage_semiring = struct
  type elt = Bottom | Set of Tid.Set.t

  let zero = Bottom
  let one = Set Tid.Set.empty

  let add a b =
    match (a, b) with
    | Bottom, x | x, Bottom -> x
    | Set a, Set b -> Set (Tid.Set.union a b)

  let mul a b =
    match (a, b) with
    | Bottom, _ | _, Bottom -> Bottom
    | Set a, Set b -> Set (Tid.Set.union a b)

  let equal a b =
    match (a, b) with
    | Bottom, Bottom -> true
    | Set a, Set b -> Tid.Set.equal a b
    | Bottom, Set _ | Set _, Bottom -> false
end
