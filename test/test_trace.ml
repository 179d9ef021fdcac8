open Prov

let mk () = Trace.create Combined.model

let test_add_node_validation () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  Alcotest.(check bool) "unknown type rejected" true
    (try
       ignore (Trace.add_node t ~id:"x" ~node_type:"martian" ());
       false
     with Invalid_argument _ -> true);
  (* idempotent re-add with same type is fine *)
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  Alcotest.(check int) "one node" 1 (Trace.node_count t);
  Alcotest.(check bool) "re-add with different type rejected" true
    (try
       ignore (Trace.add_node t ~id:"p1" ~node_type:"file" ());
       false
     with Invalid_argument _ -> true)

let test_add_edge_validation () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  ignore (Trace.add_node t ~id:"f1" ~node_type:"file" ());
  ignore
    (Trace.add_edge t ~label:"readFrom" ~src:"f1" ~dst:"p1"
       ~time:(Interval.make 1 3));
  Alcotest.(check bool) "wrong direction rejected" true
    (try
       ignore
         (Trace.add_edge t ~label:"readFrom" ~src:"p1" ~dst:"f1"
            ~time:(Interval.point 1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown node rejected" true
    (try
       ignore
         (Trace.add_edge t ~label:"readFrom" ~src:"ghost" ~dst:"p1"
            ~time:(Interval.point 1));
       false
     with Invalid_argument _ -> true)

let test_adjacency () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  ignore (Trace.add_node t ~id:"f1" ~node_type:"file" ());
  ignore (Trace.add_node t ~id:"f2" ~node_type:"file" ());
  ignore (Trace.add_edge t ~label:"readFrom" ~src:"f1" ~dst:"p1" ~time:(Interval.make 1 2));
  ignore (Trace.add_edge t ~label:"hasWritten" ~src:"p1" ~dst:"f2" ~time:(Interval.make 3 4));
  Alcotest.(check int) "in edges of p1" 1 (List.length (Trace.in_edges t "p1"));
  Alcotest.(check int) "out edges of p1" 1 (List.length (Trace.out_edges t "p1"));
  Alcotest.(check int) "entities" 2 (List.length (Trace.entities t));
  Alcotest.(check int) "activities" 1 (List.length (Trace.activities t))

let test_state () =
  (* Definition 10: incoming interactions that began no later than T *)
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  ignore (Trace.add_node t ~id:"f1" ~node_type:"file" ());
  ignore (Trace.add_node t ~id:"f2" ~node_type:"file" ());
  ignore (Trace.add_edge t ~label:"readFrom" ~src:"f1" ~dst:"p1" ~time:(Interval.make 2 4));
  ignore (Trace.add_edge t ~label:"readFrom" ~src:"f2" ~dst:"p1" ~time:(Interval.make 6 8));
  Alcotest.(check (list string)) "state at 1 empty" [] (Trace.state t "p1" ~at:1);
  Alcotest.(check (list string)) "state at 4" [ "f1" ] (Trace.state t "p1" ~at:4);
  Alcotest.(check (list string)) "state at 7 has both" [ "f1"; "f2" ]
    (List.sort compare (Trace.state t "p1" ~at:7))

let test_dependency_registry () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"t1" ~node_type:"tuple" ());
  ignore (Trace.add_node t ~id:"t2" ~node_type:"tuple" ());
  ignore (Trace.add_node t ~id:"p" ~node_type:"process" ());
  Trace.add_dependency t ~later:"t2" ~earlier:"t1";
  Trace.add_dependency t ~later:"t2" ~earlier:"t1" (* dedup *);
  Alcotest.(check (list string)) "deps recorded" [ "t1" ] (Trace.direct_deps_of t "t2");
  Alcotest.(check bool) "has_direct_dep" true
    (Trace.has_direct_dep t ~later:"t2" ~earlier:"t1");
  Alcotest.(check bool) "activity endpoint rejected" true
    (try
       Trace.add_dependency t ~later:"t2" ~earlier:"p";
       false
     with Invalid_argument _ -> true)

let build_rich_trace () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ~label:"app[1]"
            ~attrs:[ ("pid", "1"); ("weird", "a\tb\nc") ] ());
  ignore (Trace.add_node t ~id:"f1" ~node_type:"file" ());
  ignore (Trace.add_node t ~id:"q1" ~node_type:"query" ());
  ignore (Trace.add_node t ~id:"t1" ~node_type:"tuple" ());
  ignore (Trace.add_edge t ~label:"readFrom" ~src:"f1" ~dst:"p1" ~time:(Interval.make 1 6));
  ignore (Trace.add_edge t ~label:"run" ~src:"p1" ~dst:"q1" ~time:(Interval.point 7));
  ignore (Trace.add_edge t ~label:"hasRead" ~src:"t1" ~dst:"q1" ~time:(Interval.point 7));
  Trace.add_dependency t ~later:"t1" ~earlier:"t1" |> ignore;
  t

let test_serialize_roundtrip () =
  let t = build_rich_trace () in
  let data = Trace.serialize t in
  let t' = Trace.deserialize Combined.model data in
  Alcotest.(check int) "nodes survive" (Trace.node_count t) (Trace.node_count t');
  Alcotest.(check int) "edges survive" (Trace.edge_count t) (Trace.edge_count t');
  let n = Trace.node_exn t' "p1" in
  Alcotest.(check string) "label survives" "app[1]" n.Trace.label;
  Alcotest.(check (option string)) "attr with tab/newline survives"
    (Some "a\tb\nc")
    (List.assoc_opt "weird" n.Trace.attrs);
  Alcotest.(check (list string)) "deps survive" [ "t1" ]
    (Trace.direct_deps_of t' "t1");
  (* double roundtrip is stable *)
  Alcotest.(check string) "serialize fixpoint" (Trace.serialize t')
    (Trace.serialize (Trace.deserialize Combined.model (Trace.serialize t')))

(* The handle-level builders enforce the same checks as the string-id
   API: model edge types, known nodes, entity-only dependencies. *)
let test_handle_api_checks () =
  let t = mk () in
  let p = Trace.add_node t ~id:"p1" ~node_type:"process" () in
  let f = Trace.add_node t ~id:"f1" ~node_type:"file" () in
  let tu = Trace.add_node t ~id:"t1" ~node_type:"tuple" () in
  Alcotest.(check int) "re-add returns the same handle" p
    (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  let rejects f = try f (); false with Invalid_argument _ -> true in
  let time = Interval.point 1 in
  Alcotest.(check bool) "label outside the model" true
    (rejects (fun () -> Trace.add_edge_h t ~label:"teleport" ~src:f ~dst:p ~time));
  Alcotest.(check bool) "label between the wrong types" true
    (rejects (fun () -> Trace.add_edge_h t ~label:"readFrom" ~src:p ~dst:f ~time));
  Alcotest.(check bool) "cross-model label between the wrong types" true
    (rejects (fun () -> Trace.add_edge_h t ~label:"readFromDb" ~src:f ~dst:p ~time));
  Alcotest.(check bool) "unknown handle" true
    (rejects (fun () -> Trace.add_edge_h t ~label:"readFrom" ~src:99 ~dst:p ~time));
  Alcotest.(check bool) "unknown id" true
    (rejects (fun () -> Trace.add_dependency t ~later:"t1" ~earlier:"ghost"));
  Alcotest.(check bool) "dependency on an activity" true
    (rejects (fun () -> Trace.add_dependency_h t ~later:tu ~earlier:p));
  Alcotest.(check bool) "dependency on an unknown handle" true
    (rejects (fun () -> Trace.add_dependency_h t ~later:tu ~earlier:(-1)));
  Trace.add_edge_h t ~label:"readFrom" ~src:f ~dst:p ~time;
  Trace.add_dependency_h t ~later:tu ~earlier:tu;
  Alcotest.(check int) "only the admissible edge" 1 (Trace.edge_count t);
  Alcotest.(check bool) "dependency registered" true
    (Trace.has_direct_dep t ~later:"t1" ~earlier:"t1")

(* ---------------- traces of audited runs ------------------------- *)

open Ldv_core

let q1_1 = lazy (Ldv_fixtures.audit ~vid:"Q1-1" Audit.Included)
let q2_2 = lazy (Ldv_fixtures.audit ~vid:"Q2-2" Audit.Included)
let two_sessions = lazy (Concurrent.audited ~sessions:2 ~statements:6 ~seed:5 ())

let audits = [ ("Q1-1", q1_1); ("Q2-2", q2_2); ("2 sessions", two_sessions) ]

let test_relevant_via_trace () =
  List.iter
    (fun (name, audit) ->
      let audit = Lazy.force audit in
      Alcotest.(check bool)
        (name ^ ": trace walk = lineage table")
        true
        (Minidb.Tid.Set.equal (Slice.relevant audit)
           (Slice.relevant_via_trace audit.Audit.trace)))
    audits

let test_audited_serialize_fixpoint () =
  List.iter
    (fun (name, audit) ->
      let audit = Lazy.force audit in
      List.iter
        (fun (which, t) ->
          let data = Trace.serialize t in
          let t' = Trace.deserialize Combined.model data in
          Alcotest.(check string)
            (Printf.sprintf "%s %s: deserialize then serialize" name which)
            data (Trace.serialize t');
          Alcotest.(check int) (name ^ " " ^ which ^ ": edges") (Trace.edge_count t)
            (Trace.edge_count t'))
        [ ("full", audit.Audit.trace); ("compact", Audit.compact_trace audit) ])
    audits

(* Trace shape on fixed seeds: (nodes, edges, lineage dependencies) of the
   full and the packaged (compact) trace. A change to the trace builder
   must leave these exactly where they are. *)
let test_pinned_counts () =
  let counts t =
    ( Trace.node_count t,
      Trace.edge_count t,
      List.length (Dependency.lineage_dependencies t) )
  in
  let triple = Alcotest.(triple int int int) in
  List.iter2
    (fun (name, audit) (full, compact) ->
      let audit = Lazy.force audit in
      Alcotest.check triple (name ^ ": full trace") full (counts audit.Audit.trace);
      Alcotest.check triple (name ^ ": compact trace") compact
        (counts (Audit.compact_trace audit)))
    audits
    [ ((2400, 5342, 1765), (52, 59, 4));
      ((1570, 3545, 3208), (52, 59, 4));
      ((40, 65, 24), (32, 37, 4)) ]

let suite =
  [ Alcotest.test_case "node validation" `Quick test_add_node_validation;
    Alcotest.test_case "edge validation" `Quick test_add_edge_validation;
    Alcotest.test_case "adjacency" `Quick test_adjacency;
    Alcotest.test_case "state (Def. 10)" `Quick test_state;
    Alcotest.test_case "dependency registry" `Quick test_dependency_registry;
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "handle API checks" `Quick test_handle_api_checks;
    Alcotest.test_case "relevant via trace = relevant (audits)" `Quick
      test_relevant_via_trace;
    Alcotest.test_case "serialize fixpoint (audited traces)" `Quick
      test_audited_serialize_fixpoint;
    Alcotest.test_case "pinned trace counts" `Quick test_pinned_counts ]
