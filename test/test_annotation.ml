open Minidb

let tid table rid = Tid.make ~table ~rid ~version:1

let a = tid "t" 1
let b = tid "t" 2
let c = tid "u" 1

let poly = Alcotest.testable (Fmt.of_to_string Annotation.to_string) Annotation.equal

let test_normal_form () =
  let open Annotation in
  Alcotest.check poly "x + x has coefficient 2" (mul (of_int 2) (var a))
    (add (var a) (var a));
  Alcotest.check poly "x*y = y*x" (mul (var a) (var b)) (mul (var b) (var a));
  Alcotest.check poly "p + 0 = p" (var a) (add (var a) zero);
  Alcotest.check poly "p * 1 = p" (var a) (mul (var a) one);
  Alcotest.check poly "p * 0 = 0" zero (mul (var a) zero);
  Alcotest.check poly "x - coeff cancels" zero
    (add (var a) (mul (of_int (-1)) (var a)))

let test_sum_matches_folded_add () =
  let open Annotation in
  let ps = [ var a; mul (var a) (var b); var c; var a; one ] in
  Alcotest.check poly "sum = fold add"
    (List.fold_left add zero ps)
    (sum ps)

let test_lineage () =
  let open Annotation in
  let p = add (mul (var a) (var b)) (var c) in
  Alcotest.(check int) "lineage cardinality" 3 (Tid.Set.cardinal (lineage p));
  Alcotest.(check bool) "lineage membership" true (Tid.Set.mem c (lineage p))

let test_why () =
  let open Annotation in
  let p = add (mul (var a) (var b)) (var c) in
  Alcotest.(check int) "two witnesses" 2 (List.length (why p));
  let p2 = add (var a) (mul (var a) (var a)) in
  (* {a} appears once deduplicated *)
  Alcotest.(check int) "witnesses dedup" 1 (List.length (why p2))

let test_derivation_count () =
  let open Annotation in
  let p = add (add (var a) (var a)) (mul (var b) (var c)) in
  Alcotest.(check int) "three derivations" 3 (derivation_count p)

let test_eval_homomorphism () =
  let open Annotation in
  (* evaluating under Nat with all-ones assignment = derivation count *)
  let p = add (mul (var a) (var b)) (mul (of_int 2) (var c)) in
  let n = eval (module Nat_semiring) (fun _ -> 1) p in
  Alcotest.(check int) "nat eval = derivation count" (derivation_count p) n;
  (* boolean eval: true iff some monomial is all-true *)
  let bl = eval (module Bool_semiring) (fun t -> Tid.equal t c) p in
  Alcotest.(check bool) "bool eval finds the c monomial" true bl;
  let bl2 = eval (module Bool_semiring) (fun t -> Tid.equal t a) p in
  Alcotest.(check bool) "a alone is not a witness" false bl2

let test_tropical () =
  let open Annotation in
  (* cheapest derivation: min over monomials of the sum of var costs *)
  let p = add (mul (var a) (var b)) (var c) in
  let cost t = if Tid.equal t c then Some 10 else Some 2 in
  Alcotest.(check (option int)) "min cost path" (Some 4)
    (eval (module Tropical_semiring) cost p)

let test_lineage_semiring_agrees () =
  let open Annotation in
  let p = add (mul (var a) (var b)) (var c) in
  let le = eval (module Lineage_semiring) (fun t -> Lineage_semiring.Set (Tid.Set.singleton t)) p in
  match le with
  | Lineage_semiring.Set s ->
    Alcotest.(check bool) "lineage semiring = syntactic lineage" true
      (Tid.Set.equal s (lineage p))
  | Lineage_semiring.Bottom -> Alcotest.fail "expected a set"

(* ------------------------------------------------------------------ *)
(* Property tests: the polynomials form a commutative semiring.        *)

let tid_gen =
  QCheck.Gen.(
    map2 (fun t r -> Tid.make ~table:(String.make 1 t) ~rid:r ~version:1)
      (char_range 'a' 'c') (int_range 1 3))

let poly_gen =
  QCheck.Gen.(
    let base =
      oneof
        [ return Annotation.zero;
          return Annotation.one;
          map Annotation.var tid_gen;
          (* coefficients stay in N so that evaluation into arbitrary
             semirings (which have no subtraction) is a homomorphism *)
          map Annotation.of_int (int_range 0 3) ]
    in
    let rec go n =
      if n = 0 then base
      else
        frequency
          [ (2, base);
            (2, map2 Annotation.add (go (n - 1)) (go (n - 1)));
            (2, map2 Annotation.mul (go (n - 1)) (go (n - 1))) ]
    in
    go 3)

let arb_poly = QCheck.make ~print:Annotation.to_string poly_gen
let arb2 = QCheck.pair arb_poly arb_poly
let arb3 = QCheck.triple arb_poly arb_poly arb_poly

let prop name count arb f = QCheck.Test.make ~name ~count arb f

let semiring_laws =
  let open Annotation in
  [ prop "add commutative" 200 arb2 (fun (p, q) -> equal (add p q) (add q p));
    prop "add associative" 200 arb3 (fun (p, q, r) ->
        equal (add (add p q) r) (add p (add q r)));
    prop "mul commutative" 200 arb2 (fun (p, q) -> equal (mul p q) (mul q p));
    prop "mul associative" 100 arb3 (fun (p, q, r) ->
        equal (mul (mul p q) r) (mul p (mul q r)));
    prop "mul distributes over add" 100 arb3 (fun (p, q, r) ->
        equal (mul p (add q r)) (add (mul p q) (mul p r)));
    prop "zero annihilates" 200 arb_poly (fun p -> equal (mul p zero) zero);
    prop "one is identity" 200 arb_poly (fun p -> equal (mul p one) p);
    prop "lineage(p*q) = lineage p U lineage q (p,q nonzero)" 200 arb2
      (fun (p, q) ->
        if is_zero p || is_zero q then QCheck.assume_fail ()
        else
          Tid.Set.equal (lineage (mul p q))
            (Tid.Set.union (lineage p) (lineage q)));
    prop "eval is additive homomorphism (Nat)" 200 arb2 (fun (p, q) ->
        let f _ = 2 in
        eval (module Nat_semiring) f (add p q)
        = eval (module Nat_semiring) f p + eval (module Nat_semiring) f q);
    prop "eval is multiplicative homomorphism (Nat)" 100 arb2 (fun (p, q) ->
        let f _ = 2 in
        eval (module Nat_semiring) f (mul p q)
        = eval (module Nat_semiring) f p * eval (module Nat_semiring) f q);
    prop "sum = iterated add" 100 (QCheck.list_of_size (QCheck.Gen.int_bound 8) arb_poly)
      (fun ps -> equal (sum ps) (List.fold_left add zero ps)) ]

(* ------------------------------------------------------------------ *)
(* Property tests: the circuit agrees with the normal-form oracle.     *)

(* A random annotation term, built both as a circuit and as the
   normal-form polynomial the circuit must expand to. *)
type term =
  | Zero
  | One
  | Var of Tid.t
  | Int of int
  | Add of term * term
  | Mul of term * term
  | Sum of term list

let rec circuit = function
  | Zero -> Annotation.zero
  | One -> Annotation.one
  | Var v -> Annotation.var v
  | Int n -> Annotation.of_int n
  | Add (p, q) -> Annotation.add (circuit p) (circuit q)
  | Mul (p, q) -> Annotation.mul (circuit p) (circuit q)
  | Sum ps -> Annotation.sum (List.map circuit ps)

let rec oracle = function
  | Zero -> Annotation.Poly.zero
  | One -> Annotation.Poly.one
  | Var v -> Annotation.Poly.var v
  | Int n -> Annotation.Poly.of_int n
  | Add (p, q) -> Annotation.Poly.add (oracle p) (oracle q)
  | Mul (p, q) -> Annotation.Poly.mul (oracle p) (oracle q)
  | Sum ps -> Annotation.Poly.sum (List.map oracle ps)

let term_gen =
  QCheck.Gen.(
    let base =
      oneof
        [ return Zero; return One; map (fun v -> Var v) tid_gen;
          map (fun n -> Int n) (int_range 0 3) ]
    in
    let rec go n =
      if n = 0 then base
      else
        frequency
          [ (2, base);
            (2, map2 (fun p q -> Add (p, q)) (go (n - 1)) (go (n - 1)));
            (2, map2 (fun p q -> Mul (p, q)) (go (n - 1)) (go (n - 1)));
            (1, map (fun ps -> Sum ps) (list_size (int_bound 4) (go (n - 1)))) ]
    in
    go 3)

let arb_term =
  QCheck.make ~print:(fun t -> Annotation.Poly.to_string (oracle t)) term_gen

let semiring_images t =
  let open Annotation in
  let cost (v : Tid.t) = Some (Char.code v.Tid.table.[0] + v.Tid.rid) in
  let member (v : Tid.t) = v.Tid.rid <> 2 in
  let singleton v = Lineage_semiring.Set (Tid.Set.singleton v) in
  let c = circuit t and o = oracle t in
  eval (module Nat_semiring) (fun v -> v.Tid.rid) c
  = Poly.eval (module Nat_semiring) (fun v -> v.Tid.rid) o
  && eval (module Bool_semiring) member c
     = Poly.eval (module Bool_semiring) member o
  && Tropical_semiring.equal
       (eval (module Tropical_semiring) cost c)
       (Poly.eval (module Tropical_semiring) cost o)
  && Lineage_semiring.equal
       (eval (module Lineage_semiring) singleton c)
       (Poly.eval (module Lineage_semiring) singleton o)

let circuit_vs_oracle =
  let open Annotation in
  [ prop "circuit lineage = oracle lineage" 300 arb_term (fun t ->
        Tid.Set.equal (lineage (circuit t)) (Poly.lineage (oracle t)));
    prop "circuit why = oracle why" 300 arb_term (fun t ->
        List.equal Tid.Set.equal (why (circuit t)) (Poly.why (oracle t)));
    prop "circuit derivation count = oracle" 300 arb_term (fun t ->
        derivation_count (circuit t) = Poly.derivation_count (oracle t));
    prop "circuit equal = oracle equal" 300 (QCheck.pair arb_term arb_term)
      (fun (t, u) ->
        equal (circuit t) (circuit u) = Poly.equal (oracle t) (oracle u)
        && equal (circuit t) (circuit t)
        && equal (circuit t) zero = Poly.equal (oracle t) Poly.zero
        && equal (circuit t) one = Poly.equal (oracle t) Poly.one
        && is_zero (circuit t) = Poly.equal (oracle t) Poly.zero);
    prop "circuit eval = oracle eval (Nat, Bool, Tropical, Lineage)" 300
      arb_term semiring_images ]

let test_cancelling_circuit () =
  let open Annotation in
  (* with a negative constant the circuit's support over-approximates:
     the structural readings must fall back to the normal form *)
  let p = add (var a) (mul (of_int (-1)) (var a)) in
  Alcotest.(check bool) "is_zero" true (is_zero p);
  Alcotest.(check bool) "equal one" false (equal p one);
  Alcotest.(check int) "no lineage" 0 (Tid.Set.cardinal (lineage p));
  Alcotest.(check int) "no derivations" 0 (derivation_count p)

let suite =
  [ Alcotest.test_case "normal form" `Quick test_normal_form;
    Alcotest.test_case "cancelling circuit" `Quick test_cancelling_circuit;
    Alcotest.test_case "sum matches folded add" `Quick test_sum_matches_folded_add;
    Alcotest.test_case "lineage" `Quick test_lineage;
    Alcotest.test_case "why provenance" `Quick test_why;
    Alcotest.test_case "derivation count" `Quick test_derivation_count;
    Alcotest.test_case "eval homomorphism" `Quick test_eval_homomorphism;
    Alcotest.test_case "tropical semiring" `Quick test_tropical;
    Alcotest.test_case "lineage semiring" `Quick test_lineage_semiring_agrees ]
  @ List.map QCheck_alcotest.to_alcotest (semiring_laws @ circuit_vs_oracle)
