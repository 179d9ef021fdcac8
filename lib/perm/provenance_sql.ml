(** The Perm-style provenance interface over MiniDB.

    Perm rewrites a query marked with the [PROVENANCE] keyword so that each
    result tuple comes back together with the input tuples it depends on
    (its Lineage). MiniDB's executor propagates annotations natively, so
    the "rewrite" here consists of running the query with annotation
    collection and exposing the per-row lineage — same observable
    behaviour, same extra cost proportional to provenance size. *)

open Minidb

type provenance_row = {
  values : Value.t array;
  lineage : Tid.Set.t;  (** Lin(Q, t) for this result row *)
  witnesses : Tid.Set.t list Lazy.t;
      (** why-provenance: one witness per derivation. Lazy: computing
          witness sets for a large aggregate is expensive and the audit
          path never needs them. *)
  derivations : int Lazy.t;  (** bag multiplicity under N[X] *)
}

type provenance_result = {
  schema : Schema.t;
  rows : provenance_row list;
  read_tables : string list;  (** base tables the query scanned *)
}

(** Execute an already-parsed [SELECT ...] and return rows with their
    lineage.

    This is the moral equivalent of prefixing the query with Perm's
    [PROVENANCE] keyword: it costs a provenance-computing execution, which
    is what the paper's server-included audit pays on every query. *)
let query_lineage_ast (db : Database.t) (ast : Sql_ast.statement) :
    provenance_result =
  match ast with
  | Sql_ast.Select s | Sql_ast.Provenance s ->
    ignore (Database.tick db);
    let plan = Planner.plan_select (Database.catalog db) s in
    let result = Executor.run plan in
    { schema = result.Executor.schema;
      rows =
        List.map
          (fun (r : Executor.arow) ->
            { values = r.Executor.values;
              lineage = Annotation.lineage r.Executor.ann;
              witnesses = lazy (Annotation.why r.Executor.ann);
              derivations = lazy (Annotation.derivation_count r.Executor.ann) })
          result.Executor.rows;
      read_tables = Planner.base_tables plan }
  | _ -> Errors.unsupported "query_lineage expects a SELECT statement"

(** [query_lineage_ast] on SQL text. *)
let query_lineage (db : Database.t) (sql : string) : provenance_result =
  query_lineage_ast db (Sql_parser.parse sql)

(** Union of all rows' lineage: every tuple version the query actually
    used. *)
let total_lineage (r : provenance_result) : Tid.Set.t =
  List.fold_left
    (fun acc row -> Tid.Set.union acc row.lineage)
    Tid.Set.empty r.rows

(** Byte footprint of the provenance (the tuple versions in the lineage),
    which is what a server-included package must persist. *)
let lineage_bytes (db : Database.t) (lineage : Tid.Set.t) : int =
  Tid.Set.fold
    (fun tid acc ->
      match Catalog.find_opt (Database.catalog db) tid.Tid.table with
      | None -> acc
      | Some table -> (
        match Table.find_version table tid with
        | None -> acc
        | Some tv ->
          acc
          + Array.fold_left
              (fun a v -> a + Value.byte_size v)
              16 tv.Table.values))
    lineage 0

(** Render a provenance result the way Perm's rewritten query would: one
    output row per (result row, lineage tuple) pair with provenance columns
    appended. *)
let expand_perm_style (r : provenance_result) : Value.t array list =
  List.concat_map
    (fun row ->
      if Tid.Set.is_empty row.lineage then
        [ Array.append row.values [| Value.Null; Value.Null; Value.Null |] ]
      else
        Tid.Set.elements row.lineage
        |> List.map (fun (tid : Tid.t) ->
               Array.append row.values
                 [| Value.Str tid.Tid.table;
                    Value.Int tid.Tid.rid;
                    Value.Int tid.Tid.version |]))
    r.rows
