(** Execution traces (Definition 2): directed graphs of model-typed
    activity/entity nodes whose edges carry time-interval annotations.
    Edge direction follows information flow ([file -> process] for reads,
    [process -> file] for writes, [tuple -> statement] for inputs,
    [statement -> tuple] for results).

    Traces also store direct data dependencies between entities of the
    same model (Definition 7's lineage facts are registered explicitly;
    Definition 8's blackbox dependencies are implied by process paths).

    Nodes are interned to dense integer {!handle}s; the string-id
    functions resolve an id to its handle once and are what analyses use.
    Builders that add many edges keep handles ([add_node] returns one) and
    use the [_h] variants, which never render or hash a node id. *)

type node = {
  id : string;
  node_type : string;
  kind : Model.node_kind;
  label : string;
  attrs : (string * string) list;
}

type edge = { elabel : string; src : string; dst : string; time : Interval.t }

type t

(** A node's dense index in its trace, valid for that trace only. *)
type handle = int

val create : Model.t -> t
val model : t -> Model.t

val find_node : t -> string -> node option

(** @raise Invalid_argument on unknown node ids. *)
val node_exn : t -> string -> node

val mem_node : t -> string -> bool

(** Returns the node's handle. Idempotent for an existing node of the
    same type (the first label and attributes stay).
    @raise Invalid_argument on types outside the model, or on re-adding an
    id with a different type. *)
val add_node :
  t ->
  ?label:string ->
  ?attrs:(string * string) list ->
  id:string ->
  node_type:string ->
  unit ->
  handle

(** @raise Invalid_argument on unknown nodes, or when the edge type is not
    admissible between the endpoint node types. *)
val add_edge :
  t -> label:string -> src:string -> dst:string -> time:Interval.t -> unit

(** [add_edge] on handles, with the same checks. *)
val add_edge_h :
  t -> label:string -> src:handle -> dst:handle -> time:Interval.t -> unit

(** Register that entity [later] directly depends on entity [earlier]
    (both must be entities). Idempotent per pair.
    @raise Invalid_argument on unknown nodes or non-entity endpoints. *)
val add_dependency : t -> later:string -> earlier:string -> unit

(** [add_dependency] on handles, with the same checks. *)
val add_dependency_h : t -> later:handle -> earlier:handle -> unit

val direct_deps_of : t -> string -> string list
val has_direct_dep : t -> later:string -> earlier:string -> bool

val in_edges : t -> string -> edge list
val out_edges : t -> string -> edge list

val nodes : t -> node list
val edges : t -> edge list

val node_count : t -> int
val edge_count : t -> int

val entities : t -> node list
val activities : t -> node list

(** State of a node at time [at] (Definition 10): sources of all incoming
    interactions that began no later than [at]. *)
val state : t -> string -> at:int -> string list

(** Line-oriented serialization, embedded in packages: nodes sorted by
    id, edges and dependencies in insertion order, so a trace always
    serializes to the same bytes. *)
val serialize : t -> string

(** @raise Invalid_argument on malformed input. *)
val deserialize : Model.t -> string -> t
