(** GProM-style reenactment of update operations (§VII-B).

    The provenance of a modification must be captured *before* it executes,
    because the pre-versions it reads disappear afterwards. GProM reenacts
    the update as a query; we build exactly that query — a SELECT of the
    rows the modification will touch — run it through the provenance
    executor, and only then let the DB apply the modification. The
    reenactment query's cost is the extra audit overhead the paper reports
    for the Update step of Figure 7a. *)

open Minidb

type reenactment = {
  reenact_sql : string;  (** the SELECT that simulates the modification *)
  pre_state : Provenance_sql.provenance_result;
      (** affected rows and their lineage before the modification ran *)
}

(* The reenactment SELECT for an UPDATE or DELETE statement, as AST. *)
let reenactment_select (stmt : Sql_ast.statement) : Sql_ast.statement =
  match stmt with
  | Sql_ast.Update { table; where; _ } | Sql_ast.Delete { table; where } ->
    Sql_ast.Select
      (Sql_ast.simple_select ?where
         ~from:[ Sql_ast.from_table table ]
         [ Sql_ast.Star ])
  | Sql_ast.Insert _ ->
    Errors.unsupported "inserts read no pre-state; no reenactment needed"
  | _ -> Errors.unsupported "reenactment applies to UPDATE and DELETE only"

(** Build the reenactment SELECT for an UPDATE or DELETE statement. *)
let reenactment_query (stmt : Sql_ast.statement) : string =
  Pretty.statement_to_string (reenactment_select stmt)

(** Capture the pre-state of a modification by reenacting it as a query;
    the query runs from its AST, so it is never re-parsed. *)
let capture (db : Database.t) (stmt : Sql_ast.statement) : reenactment =
  let select = reenactment_select stmt in
  { reenact_sql = Pretty.statement_to_string select;
    pre_state = Provenance_sql.query_lineage_ast db select }

(** Reenact-then-execute: capture provenance, run the modification, and
    return both. The returned [dml_info] is the DB's own account of what
    was written; [reenactment] is what the auditor stores. *)
let execute (db : Database.t) (stmt : Sql_ast.statement) :
    reenactment option * Database.dml_info =
  match stmt with
  | Sql_ast.Insert { table; columns; source } ->
    (None, Database.run_insert db ~table ~columns ~source)
  | Sql_ast.Update { table; sets; where } ->
    let r = capture db stmt in
    (Some r, Database.run_update db ~table ~sets ~where)
  | Sql_ast.Delete { table; where } ->
    let r = capture db stmt in
    (Some r, Database.run_delete db ~table ~where)
  | _ -> Errors.unsupported "Reenact.execute expects a DML statement"
