(** Execution traces (Definition 2).

    A trace is a directed graph whose nodes are instances of the model's
    activity/entity types and whose edges carry time-interval annotations.
    Edge direction follows information flow: [file -> process] for reads,
    [process -> file] for writes, [tuple -> statement] for statement inputs,
    [statement -> tuple] for results.

    Traces also store *direct data dependencies* between entities of the
    same model (Definitions 7 and 8 are instances): for the Lineage model
    these are registered explicitly from the DB's lineage facts; for the
    blackbox model they are implied by process paths and need not be
    stored.

    Representation: every node is interned once to a dense integer
    [handle]. Nodes, their type indexes and their in/out adjacency live in
    handle-indexed growable arrays; edges live in one insertion-ordered
    growable array and adjacency lists hold edge indices; direct
    dependencies are keyed by handle pairs. The only string-keyed table is
    the [id -> handle] map behind the string-id API, so a builder that
    keeps handles never re-renders or re-hashes a node id per edge. *)

type node = {
  id : string;
  node_type : string;  (** one of the model's activity/entity types *)
  kind : Model.node_kind;
  label : string;  (** human-readable display label *)
  attrs : (string * string) list;
}

type edge = { elabel : string; src : string; dst : string; time : Interval.t }

type handle = int

module Int_tbl = Hashtbl.Make (Int)

type t = {
  model : Model.t;
  type_index : (string, int) Hashtbl.t;
      (** node type -> dense index, activities first *)
  n_types : int;
  n_activities : int;
  admissible : (string, bool array) Hashtbl.t;
      (** edge label -> admissibility by [src type * n types + dst type],
          built once from the model's edge types *)
  ids : (string, handle) Hashtbl.t;
  mutable nodes : node array;
  mutable node_ty : int array;
  mutable out_adj : int list array;  (** edge indices, newest first *)
  mutable in_adj : int list array;
  mutable deps : handle list array;  (** earlier entities, newest first *)
  mutable n_nodes : int;
  mutable edges : edge array;
  mutable n_edges : int;
  mutable dep_log : int array;  (** (later, earlier) pairs, insertion order *)
  mutable n_deps : int;
  dep_seen : unit Int_tbl.t;  (** [later lsl 31 lor earlier] *)
}

let no_node =
  { id = ""; node_type = ""; kind = Model.Entity; label = ""; attrs = [] }

let no_edge = { elabel = ""; src = ""; dst = ""; time = Interval.point 0 }

let create (model : Model.t) =
  let types = model.Model.activities @ model.Model.entities in
  let n_types = List.length types in
  let type_index = Hashtbl.create 16 in
  List.iteri (fun i ty -> Hashtbl.replace type_index ty i) types;
  let admissible = Hashtbl.create 16 in
  List.iter
    (fun (et : Model.edge_type) ->
      if not (Hashtbl.mem admissible et.Model.label) then
        Hashtbl.replace admissible et.Model.label
          (Array.make (n_types * n_types) false);
      match
        ( Hashtbl.find_opt type_index et.Model.src_type,
          Hashtbl.find_opt type_index et.Model.dst_type )
      with
      | Some s, Some d ->
        (Hashtbl.find admissible et.Model.label).((s * n_types) + d) <- true
      | _ -> ())
    model.Model.edge_types;
  { model;
    type_index;
    n_types;
    n_activities = List.length model.Model.activities;
    admissible;
    ids = Hashtbl.create 256;
    nodes = [||];
    node_ty = [||];
    out_adj = [||];
    in_adj = [||];
    deps = [||];
    n_nodes = 0;
    edges = [||];
    n_edges = 0;
    dep_log = [||];
    n_deps = 0;
    dep_seen = Int_tbl.create 64 }

let model t = t.model

(* [a] with room for index [n], doubling; new slots hold [fill] *)
let grown a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 64 (2 * n)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let handle t id = Hashtbl.find_opt t.ids id

let handle_exn t id =
  match handle t id with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Trace: unknown node %S" id)

let check_handle t what h =
  if h < 0 || h >= t.n_nodes then
    invalid_arg (Printf.sprintf "Trace.%s: unknown node handle %d" what h)

let find_node t id = Option.map (fun h -> t.nodes.(h)) (handle t id)
let node_exn t id = t.nodes.(handle_exn t id)
let mem_node t id = Hashtbl.mem t.ids id

let add_node t ?(label = "") ?(attrs = []) ~id ~node_type () =
  match Hashtbl.find_opt t.type_index node_type with
  | None ->
    invalid_arg
      (Printf.sprintf "Trace.add_node: type %S not in model %s" node_type
         t.model.Model.name)
  | Some ty -> (
    match Hashtbl.find_opt t.ids id with
    | Some h ->
      if t.node_ty.(h) <> ty then
        invalid_arg
          (Printf.sprintf "Trace.add_node: node %S re-added with type %S" id
             node_type);
      h
    | None ->
      let h = t.n_nodes in
      t.nodes <- grown t.nodes h no_node;
      t.node_ty <- grown t.node_ty h 0;
      t.out_adj <- grown t.out_adj h [];
      t.in_adj <- grown t.in_adj h [];
      t.deps <- grown t.deps h [];
      let label = if label = "" then id else label in
      let kind = if ty < t.n_activities then Model.Activity else Model.Entity in
      t.nodes.(h) <- { id; node_type; kind; label; attrs };
      t.node_ty.(h) <- ty;
      Hashtbl.add t.ids id h;
      t.n_nodes <- h + 1;
      h)

let add_edge_h t ~label ~src ~dst ~time =
  check_handle t "add_edge" src;
  check_handle t "add_edge" dst;
  let allowed =
    match Hashtbl.find_opt t.admissible label with
    | Some m -> m.((t.node_ty.(src) * t.n_types) + t.node_ty.(dst))
    | None -> false
  in
  let s = t.nodes.(src) and d = t.nodes.(dst) in
  if not allowed then
    invalid_arg
      (Printf.sprintf
         "Trace.add_edge: edge %S from type %S to type %S not allowed" label
         s.node_type d.node_type);
  let i = t.n_edges in
  t.edges <- grown t.edges i no_edge;
  t.edges.(i) <- { elabel = label; src = s.id; dst = d.id; time };
  t.n_edges <- i + 1;
  t.out_adj.(src) <- i :: t.out_adj.(src);
  t.in_adj.(dst) <- i :: t.in_adj.(dst)

let add_edge t ~label ~src ~dst ~time =
  add_edge_h t ~label ~src:(handle_exn t src) ~dst:(handle_exn t dst) ~time

(** Register a direct data dependency: entity [later] depends on entity
    [earlier] (both must be entities of the same sub-model). *)
let add_dependency_h t ~later ~earlier =
  check_handle t "add_dependency" later;
  check_handle t "add_dependency" earlier;
  if
    t.nodes.(later).kind <> Model.Entity
    || t.nodes.(earlier).kind <> Model.Entity
  then invalid_arg "Trace.add_dependency: both nodes must be entities";
  let key = (later lsl 31) lor earlier in
  if not (Int_tbl.mem t.dep_seen key) then begin
    Int_tbl.add t.dep_seen key ();
    t.deps.(later) <- earlier :: t.deps.(later);
    let i = 2 * t.n_deps in
    t.dep_log <- grown t.dep_log (i + 1) 0;
    t.dep_log.(i) <- later;
    t.dep_log.(i + 1) <- earlier;
    t.n_deps <- t.n_deps + 1
  end

let add_dependency t ~later ~earlier =
  match (handle t later, handle t earlier) with
  | Some later, Some earlier -> add_dependency_h t ~later ~earlier
  | _ -> invalid_arg "Trace.add_dependency: unknown node"

let direct_deps_of t id =
  match handle t id with
  | Some h -> List.map (fun e -> t.nodes.(e).id) t.deps.(h)
  | None -> []

let has_direct_dep t ~later ~earlier =
  match (handle t later, handle t earlier) with
  | Some l, Some e -> Int_tbl.mem t.dep_seen ((l lsl 31) lor e)
  | _ -> false

let edges_at t adj id =
  match handle t id with
  | Some h -> List.map (fun i -> t.edges.(i)) adj.(h)
  | None -> []

let in_edges t id = edges_at t t.in_adj id
let out_edges t id = edges_at t t.out_adj id

let nodes t = Array.to_list (Array.sub t.nodes 0 t.n_nodes)
let edges t = Array.to_list (Array.sub t.edges 0 t.n_edges)
let node_count t = t.n_nodes
let edge_count t = t.n_edges

let entities t = List.filter (fun n -> n.kind = Model.Entity) (nodes t)
let activities t = List.filter (fun n -> n.kind = Model.Activity) (nodes t)

(** State of a node at time [at] (Definition 10): sources of all incoming
    interactions that began no later than [at]. *)
let state t id ~at =
  List.filter_map
    (fun e -> if Interval.b e.time <= at then Some e.src else None)
    (in_edges t id)

(* ------------------------------------------------------------------ *)
(* Serialization: a line-oriented format with one node/edge/dep per
   line. Sufficient for embedding traces in packages.                  *)

let escape s =
  if not (String.contains s '\t' || String.contains s '\n') then s
  else
    String.concat "\\t" (String.split_on_char '\t' s)
    |> String.split_on_char '\n'
    |> String.concat "\\n"

let unescape s =
  if not (String.contains s '\\') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let i = ref 0 in
    let n = String.length s in
    while !i < n do
      if s.[!i] = '\\' && !i + 1 < n then begin
        (match s.[!i + 1] with
        | 't' -> Buffer.add_char buf '\t'
        | 'n' -> Buffer.add_char buf '\n'
        | c ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c);
        i := !i + 2
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

(** Nodes sorted by id, then edges and dependencies in insertion order:
    the same trace always serializes to the same bytes. *)
let serialize t : string =
  let buf = Buffer.create 4096 in
  let field s =
    Buffer.add_char buf '\t';
    Buffer.add_string buf (escape s)
  in
  let sorted = Array.sub t.nodes 0 t.n_nodes in
  Array.sort (fun a b -> String.compare a.id b.id) sorted;
  Array.iter
    (fun n ->
      Buffer.add_char buf 'N';
      field n.id;
      field n.node_type;
      field n.label;
      List.iter
        (fun (k, v) ->
          field k;
          Buffer.add_char buf '=';
          Buffer.add_string buf (escape v))
        n.attrs;
      Buffer.add_char buf '\n')
    sorted;
  for i = 0 to t.n_edges - 1 do
    let e = t.edges.(i) in
    Buffer.add_char buf 'E';
    field e.elabel;
    field e.src;
    field e.dst;
    field (string_of_int (Interval.b e.time));
    field (string_of_int (Interval.e e.time));
    Buffer.add_char buf '\n'
  done;
  for i = 0 to t.n_deps - 1 do
    Buffer.add_char buf 'D';
    field t.nodes.(t.dep_log.(2 * i)).id;
    field t.nodes.(t.dep_log.((2 * i) + 1)).id;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let deserialize (model : Model.t) (data : string) : t =
  let t = create model in
  String.split_on_char '\n' data
  |> List.iter (fun line ->
         if String.length line = 0 then ()
         else
           match String.split_on_char '\t' line with
           | "N" :: id :: node_type :: label :: attrs ->
             let attrs =
               List.filter_map
                 (fun kv ->
                   match String.index_opt kv '=' with
                   | None -> None
                   | Some i ->
                     Some
                       ( unescape (String.sub kv 0 i),
                         unescape
                           (String.sub kv (i + 1) (String.length kv - i - 1))
                       ))
                 attrs
             in
             ignore
               (add_node t ~label:(unescape label) ~attrs ~id:(unescape id)
                  ~node_type:(unescape node_type) ())
           | [ "E"; label; src; dst; b; e ] ->
             add_edge t ~label:(unescape label) ~src:(unescape src)
               ~dst:(unescape dst)
               ~time:(Interval.make (int_of_string b) (int_of_string e))
           | [ "D"; later; earlier ] ->
             add_dependency t ~later:(unescape later)
               ~earlier:(unescape earlier)
           | _ ->
             invalid_arg
               (Printf.sprintf "Trace.deserialize: malformed line %S" line));
  t
