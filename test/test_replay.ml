open Ldv_core
module I = Dbclient.Interceptor

let test_included_replay_verifies () =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.build audit in
  let result = Replay.execute pkg in
  Alcotest.(check (list string)) "no divergences" [] (Replay.verify ~audit result)

let test_excluded_replay_verifies () =
  let audit = Lazy.force Ldv_fixtures.excluded in
  let pkg = Package.build audit in
  let result = Replay.execute pkg in
  Alcotest.(check (list string)) "no divergences" [] (Replay.verify ~audit result)

let test_ptu_replay_verifies () =
  let audit = Lazy.force Ldv_fixtures.ptu in
  let pkg = Ptu.build audit in
  let result = Replay.execute pkg in
  Alcotest.(check (list string)) "no divergences" [] (Replay.verify ~audit result)

let test_excluded_replay_touches_no_db () =
  let audit = Lazy.force Ldv_fixtures.excluded in
  let pkg = Package.build audit in
  let prepared = Replay.prepare pkg in
  let db = Dbclient.Server.db prepared.Replay.server in
  let result = Replay.run prepared in
  (* the replay DB has no tables at all: every answer came from the
     recording *)
  Alcotest.(check (list string)) "db untouched" []
    (Minidb.Catalog.table_names (Minidb.Database.catalog db));
  Alcotest.(check (list string)) "yet replay verified" []
    (Replay.verify ~audit result)

let test_included_restores_exact_tids () =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.build audit in
  let prepared = Replay.prepare pkg in
  let db = Dbclient.Server.db prepared.Replay.server in
  (* every tuple version in the package exists in the restored DB with the
     same identity *)
  let relevant = Slice.relevant audit in
  Minidb.Tid.Set.iter
    (fun tid ->
      let table =
        Minidb.Catalog.find (Minidb.Database.catalog db) tid.Minidb.Tid.table
      in
      Alcotest.(check bool)
        ("restored: " ^ Minidb.Tid.to_string tid)
        true
        (Minidb.Table.find_version table tid <> None))
    relevant

let test_tampered_recording_detected () =
  let audit = Lazy.force Ldv_fixtures.excluded in
  let pkg = Package.build audit in
  (* corrupt one recorded query's rows *)
  let tampered =
    { pkg with
      Package.recording =
        List.map
          (fun (r : Dbclient.Recorder.recorded) ->
            if r.Dbclient.Recorder.rec_kind = Dbclient.Recorder.Rquery then
              { r with Dbclient.Recorder.rec_rows = [] }
            else r)
          pkg.Package.recording }
  in
  let result = Replay.execute tampered in
  Alcotest.(check bool) "verification catches tampering" true
    (Replay.verify ~audit result <> [])

let test_replay_divergence_on_changed_program () =
  (* Bob modifies the app to issue a different query: server-excluded
     replay must refuse (§VII-D: no changes to queries) *)
  let audit = Lazy.force Ldv_fixtures.excluded in
  let pkg = Package.build audit in
  let rogue_program env =
    let conn = Dbclient.Client.connect env ~db:"tpch" in
    ignore (Dbclient.Client.query conn "SELECT count(*) FROM lineitem")
  in
  Alcotest.(check bool) "divergence raised" true
    (try
       ignore (Replay.execute ~program:rogue_program pkg);
       false
     with I.Replay_divergence _ -> true)

let test_included_allows_changed_program () =
  (* server-included replay supports similar experiments over the packaged
     subset: a different query over packaged tables runs fine *)
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.build audit in
  let got = ref (-1) in
  let alt_program env =
    let conn = Dbclient.Client.connect env ~db:"tpch" in
    let rows = Dbclient.Client.query conn "SELECT count(*) FROM lineitem" in
    (match rows with
    | [ [| Minidb.Value.Int n |] ] -> got := n
    | _ -> ());
    Dbclient.Client.close conn
  in
  ignore (Replay.execute ~program:alt_program pkg);
  (* the packaged subset contains exactly the lineitems the original
     queries touched *)
  let relevant = Slice.relevant audit in
  let expected =
    Minidb.Tid.Set.cardinal
      (Minidb.Tid.Set.filter
         (fun t -> t.Minidb.Tid.table = "lineitem")
         relevant)
  in
  Alcotest.(check int) "count over packaged subset" expected !got

let test_replay_is_itself_repeatable () =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.build audit in
  let r1 = Replay.execute pkg in
  let r2 = Replay.execute pkg in
  Alcotest.(check int) "same number of fingerprints"
    (List.length r1.Replay.query_fingerprints)
    (List.length r2.Replay.query_fingerprints);
  List.iter2
    (fun (_, a) (_, b) -> Alcotest.(check string) "fingerprints equal" a b)
    r1.Replay.query_fingerprints r2.Replay.query_fingerprints

let test_roundtripped_package_replays () =
  (* serialize the package to bytes, read it back, replay: still verifies *)
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.of_bytes (Package.to_bytes (Package.build audit)) in
  let result = Replay.execute pkg in
  Alcotest.(check (list string)) "no divergences after roundtrip" []
    (Replay.verify ~audit result)

(* A server-included package carries each table's hash and ordered
   indexes, so replay plans the audit's access paths instead of full
   scans; a package without index lines still replays. *)
let test_included_replay_keeps_indexes () =
  let kernel = Minios.Kernel.create () in
  let db = Minidb.Database.create ~name:"idx" () in
  let server = Dbclient.Server.install kernel db in
  List.iter
    (fun sql -> ignore (Minidb.Database.exec db sql))
    ([ "CREATE TABLE acct (id INT, bal INT)";
       "CREATE INDEX acct_id ON acct (id)";
       "CREATE ORDERED INDEX acct_bal ON acct (bal)" ]
    @ List.init 200 (fun i ->
          Printf.sprintf "INSERT INTO acct VALUES (%d, %d)" i (i * 7 mod 200)));
  let point = "SELECT bal FROM acct WHERE id = 42" in
  let program env =
    let conn = Dbclient.Client.connect env ~db:"idx" in
    let bal = Dbclient.Client.query conn point in
    let high = Dbclient.Client.query conn "SELECT id FROM acct WHERE bal > 190" in
    Dbclient.Client.close conn;
    Minios.Program.write_file env "/out/idx.txt"
      (Printf.sprintf "%d %d\n" (List.length bal) (List.length high))
  in
  Minios.Program.register ~name:"idx-app" program;
  Minios.Vfs.write_opaque (Minios.Kernel.vfs kernel) ~path:"/app/bin/idx" 1000;
  let audit =
    Audit.run ~packaging:Audit.Included kernel server ~app_name:"idx-app"
      ~app_binary:"/app/bin/idx" program
  in
  let pkg = Package.of_bytes (Package.to_bytes (Package.build audit)) in
  Alcotest.(check (list string)) "schema carries the index lines"
    [ "CREATE TABLE acct (id INT, bal INT)";
      "CREATE INDEX acct_id ON acct (id)";
      "CREATE ORDERED INDEX acct_bal ON acct (bal)" ]
    (String.split_on_char '\n' (List.assoc "acct" pkg.Package.db_schemas));
  let prepared = Replay.prepare pkg in
  let result = Replay.run prepared in
  Alcotest.(check (list string)) "replay verified" []
    (Replay.verify ~audit result);
  let rdb = Dbclient.Server.db prepared.Replay.server in
  let plan sql =
    match (Minidb.Database.query rdb ("EXPLAIN " ^ sql)).Minidb.Executor.rows with
    | [ { Minidb.Executor.values = [| Minidb.Value.Str p |]; _ } ] -> p
    | _ -> Alcotest.fail "EXPLAIN returned no plan row"
  in
  Alcotest.(check bool) "point query is an index scan" true
    (Fixtures.contains_substring ~needle:"indexscan(acct.acct_id)" (plan point));
  let without_indexes =
    { pkg with
      Package.db_schemas =
        List.map
          (fun (t, ddl) -> (t, List.hd (String.split_on_char '\n' ddl)))
          pkg.Package.db_schemas }
  in
  Alcotest.(check (list string)) "index-less package still replays" []
    (Replay.verify ~audit (Replay.execute without_indexes))

let suite =
  [ Alcotest.test_case "included replay verifies" `Quick test_included_replay_verifies;
    Alcotest.test_case "included replay keeps indexes" `Quick
      test_included_replay_keeps_indexes;
    Alcotest.test_case "excluded replay verifies" `Quick test_excluded_replay_verifies;
    Alcotest.test_case "ptu replay verifies" `Quick test_ptu_replay_verifies;
    Alcotest.test_case "excluded replay touches no DB" `Quick
      test_excluded_replay_touches_no_db;
    Alcotest.test_case "included restores exact tids" `Quick
      test_included_restores_exact_tids;
    Alcotest.test_case "tampering detected" `Quick test_tampered_recording_detected;
    Alcotest.test_case "excluded rejects changed program" `Quick
      test_replay_divergence_on_changed_program;
    Alcotest.test_case "included allows changed program" `Quick
      test_included_allows_changed_program;
    Alcotest.test_case "replay of replay" `Quick test_replay_is_itself_repeatable;
    Alcotest.test_case "roundtripped package replays" `Quick
      test_roundtripped_package_replays ]
