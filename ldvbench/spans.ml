(* The benchmark's own clock, sample statistics and span recorder.

   Spans are recorded only while [enabled] is set (the traced run). They
   are kept in memory and written once, as JSON lines, when the run ends.
   A span's parent is passed explicitly: client programs run as
   cooperative scheduler jobs, so an implicit stack of open spans would
   interleave across sessions. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---------------------------------------------------------------- *)
(* Sample statistics                                                 *)

let sorted xs = List.sort Float.compare xs

(* Linear-interpolated quantile of a non-empty sample, [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let w = pos -. float_of_int lo in
    (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)

let median xs = quantile 0.5 xs

(* ---------------------------------------------------------------- *)
(* Spans                                                             *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  req : string;  (** request id: workload/run/statement *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0

(* The span enclosing sequential (non-scheduled) benchmark code. *)
let current = ref 0

(* The request id of the spans recorded now: workload/run. Statement
   spans append their client and statement number. *)
let request = ref ""

let fresh_id () =
  incr next_id;
  !next_id

let record ~id ~parent ?(req = !request) name t0 t1 =
  recorded := { id; parent; name; req; t0; t1 } :: !recorded

(* Time [f] as a child of [parent] (default: the current sequential
   span). Returns the result and the duration in seconds; the duration is
   measured whether or not spans are being recorded. *)
let timed ?parent name f =
  let parent = Option.value parent ~default:!current in
  let id = if !enabled then fresh_id () else 0 in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  if !enabled then record ~id ~parent name t0 t1;
  (r, t1 -. t0)

(* Like [timed], but the span becomes the parent of every span opened by
   sequential code inside [f]. *)
let scope name f =
  if not !enabled then timed name f
  else begin
    let id = fresh_id () and parent = !current in
    current := id;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> current := parent)
      (fun () ->
        let r = f () in
        let t1 = now () in
        record ~id ~parent name t0 t1;
        (r, t1 -. t0))
  end

(* Open a span whose children are recorded by scheduled client code:
   [start] returns its id, [finish] closes it. *)
let start () = if !enabled then fresh_id () else 0

let finish ~id ~parent ?req name t0 =
  if !enabled then record ~id ~parent ?req name t0 (now ())

(* Durations (s) of every span called [name]. *)
let durations name =
  List.filter_map
    (fun sp -> if sp.name = name then Some (sp.t1 -. sp.t0) else None)
    !recorded

(* Self time (s) of every span called [name]: its duration minus the part
   of its interval that its children cover (children may overlap each
   other, e.g. two concurrent sessions under one audit). *)
let self_times name =
  let children = Hashtbl.create 256 in
  List.iter (fun sp -> Hashtbl.add children sp.parent sp) !recorded;
  List.filter_map
    (fun sp ->
      if sp.name <> name then None
      else
        let kids =
          Hashtbl.find_all children sp.id
          |> List.map (fun c -> (Float.max c.t0 sp.t0, Float.min c.t1 sp.t1))
          |> List.sort compare
        in
        let covered, _ =
          List.fold_left
            (fun (acc, reach) (a, b) ->
              let a = Float.max a reach in
              if b > a then (acc +. (b -. a), b) else (acc, reach))
            (0., sp.t0) kids
        in
        Some (sp.t1 -. sp.t0 -. covered))
    !recorded

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%S,\"start\":%.9f,\"end\":%.9f}\n"
        sp.id sp.parent sp.name sp.req sp.t0 sp.t1)
    (List.rev !recorded);
  close_out oc
