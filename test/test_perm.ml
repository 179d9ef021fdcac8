open Minidb

let test_query_lineage_matches_executor () =
  let db = Fixtures.sales_db () in
  let sql = "SELECT sum(price) AS ttl FROM sales WHERE price > 10" in
  let prov = Perm.Provenance_sql.query_lineage db sql in
  let direct = Database.query db sql in
  Alcotest.(check int) "same row count" (List.length direct.Executor.rows)
    (List.length prov.Perm.Provenance_sql.rows);
  Alcotest.(check bool) "lineage equals executor lineage" true
    (Tid.Set.equal
       (Perm.Provenance_sql.total_lineage prov)
       (Executor.result_lineage direct));
  Alcotest.(check (list string)) "read tables" [ "sales" ]
    prov.Perm.Provenance_sql.read_tables

let test_witnesses_and_derivations () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (x INT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1), (1)");
  let prov = Perm.Provenance_sql.query_lineage db "SELECT DISTINCT x FROM t" in
  match prov.Perm.Provenance_sql.rows with
  | [ row ] ->
    Alcotest.(check int) "two derivations" 2
      (Lazy.force row.Perm.Provenance_sql.derivations);
    Alcotest.(check int) "two witnesses" 2
      (List.length (Lazy.force row.Perm.Provenance_sql.witnesses))
  | _ -> Alcotest.fail "expected one distinct row"

let test_expand_perm_style () =
  let db = Fixtures.sales_db () in
  let prov =
    Perm.Provenance_sql.query_lineage db
      "SELECT sum(price) AS ttl FROM sales WHERE price > 10"
  in
  let expanded = Perm.Provenance_sql.expand_perm_style prov in
  Alcotest.(check int) "one row per lineage tuple" 2 (List.length expanded);
  List.iter
    (fun row ->
      Alcotest.(check int) "orig columns plus 3 provenance columns" 4
        (Array.length row))
    expanded

let test_lineage_bytes () =
  let db = Fixtures.sales_db () in
  let prov =
    Perm.Provenance_sql.query_lineage db "SELECT price FROM sales WHERE price > 10"
  in
  let bytes =
    Perm.Provenance_sql.lineage_bytes db (Perm.Provenance_sql.total_lineage prov)
  in
  Alcotest.(check bool) "nonzero lineage bytes" true (bytes > 0)

let test_reenactment_query_text () =
  let stmt = Sql_parser.parse "UPDATE t SET x = 1 WHERE y > 2" in
  Alcotest.(check string) "reenactment is a select of affected rows"
    "SELECT * FROM t WHERE y > 2"
    (Perm.Reenact.reenactment_query stmt);
  let del = Sql_parser.parse "DELETE FROM t" in
  Alcotest.(check string) "delete reenactment" "SELECT * FROM t"
    (Perm.Reenact.reenactment_query del)

let test_reenact_execute_update () =
  let db = Fixtures.sales_db () in
  let stmt = Sql_parser.parse "UPDATE sales SET price = price + 1 WHERE price > 10" in
  let reenactment, info = Perm.Reenact.execute db stmt in
  (match reenactment with
  | Some r ->
    Alcotest.(check int) "pre-state has the two affected rows" 2
      (List.length r.Perm.Reenact.pre_state.Perm.Provenance_sql.rows)
  | None -> Alcotest.fail "expected reenactment");
  Alcotest.(check int) "two updated" 2 info.Database.count;
  (* pre-state lineage = versions read by the update *)
  (match reenactment with
  | Some r ->
    let pre =
      Perm.Provenance_sql.total_lineage r.Perm.Reenact.pre_state
    in
    Alcotest.(check bool) "reenactment lineage = dml read set" true
      (Tid.Set.equal pre (Tid.Set.of_list info.Database.read))
  | None -> ());
  Fixtures.check_rows "update applied" [ "1|5"; "2|12"; "3|15" ]
    (Database.query db "SELECT id, price FROM sales")

let test_reenact_capture_matches_text () =
  let db = Fixtures.sales_db () in
  let stmt = Sql_parser.parse "DELETE FROM sales WHERE price > 10 OR id = 1" in
  let r = Perm.Reenact.capture db stmt in
  Alcotest.(check string) "capture keeps the reenactment text"
    (Perm.Reenact.reenactment_query stmt) r.Perm.Reenact.reenact_sql;
  (* the AST the capture runs and the parsed text agree *)
  let parsed = Perm.Provenance_sql.query_lineage db r.Perm.Reenact.reenact_sql in
  let pre = r.Perm.Reenact.pre_state in
  Alcotest.(check int) "same rows"
    (List.length parsed.Perm.Provenance_sql.rows)
    (List.length pre.Perm.Provenance_sql.rows);
  Alcotest.(check bool) "same lineage" true
    (Tid.Set.equal
       (Perm.Provenance_sql.total_lineage parsed)
       (Perm.Provenance_sql.total_lineage pre))

let test_reenact_insert_has_no_prestate () =
  let db = Fixtures.sales_db () in
  let stmt = Sql_parser.parse "INSERT INTO sales VALUES (9, 9)" in
  let reenactment, info = Perm.Reenact.execute db stmt in
  Alcotest.(check bool) "no reenactment for insert" true (reenactment = None);
  Alcotest.(check int) "one row" 1 info.Database.count

let test_versioning_usage () =
  let db = Fixtures.sales_db () in
  let v = Perm.Versioning.create db in
  Alcotest.(check bool) "first enable true" true (Perm.Versioning.enable_table v "sales");
  Alcotest.(check bool) "second enable false" false (Perm.Versioning.enable_table v "sales");
  Alcotest.(check (list string)) "enabled tables" [ "sales" ]
    (Perm.Versioning.enabled_tables v);
  let tid = Tid.make ~table:"sales" ~rid:1 ~version:2 in
  Perm.Versioning.record_usage v tid ~qid:7 ~pid:3 ~at:11;
  (match Perm.Versioning.usages_of v tid with
  | [ u ] ->
    Alcotest.(check int) "qid" 7 u.Perm.Versioning.used_by_qid;
    Alcotest.(check int) "pid" 3 u.Perm.Versioning.used_by_pid
  | _ -> Alcotest.fail "expected one usage");
  Alcotest.(check (list string)) "used tids" [ "sales:1@2" ]
    (List.map Tid.to_string (Perm.Versioning.used_tids v))

let test_versioning_lookup () =
  let db = Fixtures.sales_db () in
  let v = Perm.Versioning.create db in
  ignore (Database.exec db "UPDATE sales SET price = 99 WHERE id = 1");
  (* live version of rid 1 is now the updated one *)
  match Perm.Versioning.live_version v ~table:"sales" ~rid:1 with
  | Some tid -> (
    match Perm.Versioning.lookup_version v tid with
    | Some values ->
      Alcotest.(check bool) "live values updated" true
        (Value.equal values.(1) (Value.Int 99))
    | None -> Alcotest.fail "version should resolve")
  | None -> Alcotest.fail "live version should exist"

(* Lineage cardinality and summed per-row derivations of every Table II
   variant at sf 0.002, seed 3 — pinned from the eagerly expanded
   polynomials, so any change to annotation propagation shows here. *)
let table2_pins =
  [ ("Q1-1", 595, 595); ("Q1-2", 595, 595); ("Q1-3", 595, 595);
    ("Q1-4", 1197, 1197); ("Q1-5", 2949, 2949); ("Q2-1", 4967, 3902);
    ("Q2-2", 525, 415); ("Q2-3", 58, 46); ("Q2-4", 58, 46);
    ("Q3-1", 4967, 3902); ("Q3-2", 525, 415); ("Q3-3", 58, 46);
    ("Q3-4", 58, 46); ("Q4-1", 1135, 595); ("Q4-2", 1135, 595);
    ("Q4-3", 1135, 595); ("Q4-4", 2177, 1197); ("Q4-5", 4798, 2949) ]

let test_table2_lineage_pinned () =
  let db, c = Tpch.Dbgen.setup ~sf:0.002 ~seed:3 () in
  let got =
    List.map
      (fun (v : Tpch.Queries.variant) ->
        let r = Perm.Provenance_sql.query_lineage db v.Tpch.Queries.sql in
        ( v.Tpch.Queries.vid,
          Tid.Set.cardinal (Perm.Provenance_sql.total_lineage r),
          List.fold_left
            (fun acc row ->
              acc + Lazy.force row.Perm.Provenance_sql.derivations)
            0 r.Perm.Provenance_sql.rows ))
      (Tpch.Queries.variants c)
  in
  Alcotest.(check (list (triple string int int)))
    "Table II lineage / derivations" table2_pins got

let suite =
  [ Alcotest.test_case "query lineage" `Quick test_query_lineage_matches_executor;
    Alcotest.test_case "table II lineage pinned" `Quick test_table2_lineage_pinned;
    Alcotest.test_case "witnesses and derivations" `Quick test_witnesses_and_derivations;
    Alcotest.test_case "perm-style expansion" `Quick test_expand_perm_style;
    Alcotest.test_case "lineage bytes" `Quick test_lineage_bytes;
    Alcotest.test_case "reenactment query" `Quick test_reenactment_query_text;
    Alcotest.test_case "reenact update" `Quick test_reenact_execute_update;
    Alcotest.test_case "reenact capture from AST" `Quick test_reenact_capture_matches_text;
    Alcotest.test_case "insert has no pre-state" `Quick test_reenact_insert_has_no_prestate;
    Alcotest.test_case "versioning usage" `Quick test_versioning_usage;
    Alcotest.test_case "versioning lookup" `Quick test_versioning_lookup ]
