(** The Perm-style provenance interface over MiniDB: run a query with
    lineage collection (the moral equivalent of the [PROVENANCE] keyword
    rewrite) and expose per-row provenance. *)

open Minidb

type provenance_row = {
  values : Value.t array;
  lineage : Tid.Set.t;  (** Lin(Q, t) for this result row *)
  witnesses : Tid.Set.t list Lazy.t;  (** why-provenance (lazy: expensive) *)
  derivations : int Lazy.t;  (** bag multiplicity under N[X] *)
}

type provenance_result = {
  schema : Schema.t;
  rows : provenance_row list;
  read_tables : string list;  (** base tables the query scanned *)
}

(** Execute a parsed SELECT (or [PROVENANCE SELECT]) with lineage
    collection; for callers that already hold the statement's AST.
    @raise Errors.Db_error on non-SELECT statements. *)
val query_lineage_ast : Database.t -> Sql_ast.statement -> provenance_result

(** [query_lineage_ast] after parsing the SQL text.
    @raise Errors.Db_error on parse errors and non-SELECT statements. *)
val query_lineage : Database.t -> string -> provenance_result

(** Union of all rows' lineage. *)
val total_lineage : provenance_result -> Tid.Set.t

(** Byte footprint of the lineage's tuple versions — what a
    server-included package must persist. *)
val lineage_bytes : Database.t -> Tid.Set.t -> int

(** Render the result the way Perm's rewritten query would: one output row
    per (result row, lineage tuple) with provenance columns appended. *)
val expand_perm_style : provenance_result -> Value.t array list
