(* The benchmark's workloads: seeded inputs, fixtures and the client
   programs that drive the system. Everything random is drawn here from
   the run's seed; the library only ever sees the generated statements
   and rows. *)

open Minidb
module I = Dbclient.Interceptor
module Prng = Tpch.Prng

type kind = Tpch_scan | Tpch_join | Sessions_oltp

let all =
  [ ("tpch-scan", Tpch_scan);
    ("tpch-join", Tpch_join);
    ("sessions-oltp", Sessions_oltp) ]

let name k = fst (List.find (fun (_, k') -> k' = k) all)
let is_tpch = function Tpch_scan | Tpch_join -> true | Sessions_oltp -> false

(* Run sizes. [small] is the reduced size of the exact-count self-test. *)
type size = {
  sf : float;  (** TPC-H scale factor (the tpch workloads) *)
  n_insert : int;
  n_select : int;
  n_update : int;
  fixture_rows : int;  (** orders rows of the sessions fixture *)
  per_client : int;  (** statements per session (sessions-oltp) *)
}

let size ~small k =
  match k with
  | Tpch_scan | Tpch_join ->
    if small then
      { sf = 0.002; n_insert = 40; n_select = 4; n_update = 10;
        fixture_rows = 0; per_client = 0 }
    else if k = Tpch_scan then
      { sf = 0.005; n_insert = 300; n_select = 10; n_update = 50;
        fixture_rows = 0; per_client = 0 }
    else
      (* 5 Selects: each carries a large lineage, and 10 made an audited
         step take 2.5 s, too few rounds for a steady median *)
      { sf = 0.004; n_insert = 300; n_select = 5; n_update = 50;
        fixture_rows = 0; per_client = 0 }
  | Sessions_oltp ->
    if small then
      { sf = 0.; n_insert = 0; n_select = 0; n_update = 0;
        fixture_rows = 400; per_client = 200 }
    else
      { sf = 0.; n_insert = 0; n_select = 0; n_update = 0;
        fixture_rows = 2000; per_client = 750 }

let sessions = 2
let db_name = "tpch"

(* ---------------------------------------------------------------- *)
(* Fixtures                                                          *)

(* A generated database, kept as table images so every phase restores
   its own fresh copy. *)
type fixture = {
  images : string list;
  stats : Tpch.Dbgen.stats option;  (** the tpch workloads only *)
}

let images_of db =
  List.map
    (fun name ->
      Dbclient.Server.encode_table_image
        (Dbclient.Server.table_image (Catalog.find (Database.catalog db) name)))
    (Catalog.table_names (Database.catalog db))

let fresh_db (fx : fixture) : Database.t =
  fst
  @@ Spans.timed "fixture.restore" (fun () ->
         let db = Database.create ~name:db_name () in
         List.iter
           (fun img ->
             Dbclient.Server.restore_table_image db
               (Dbclient.Server.decode_table_image img))
           fx.images;
         db)

let orders_ddl =
  "CREATE TABLE orders (o_orderkey INT, o_custkey INT, o_orderstatus TEXT, \
   o_totalprice FLOAT, o_orderdate TEXT, o_orderpriority TEXT, o_clerk TEXT, \
   o_shippriority INT, o_comment TEXT)"

let sessions_customers = 150

(* Generate the database ([dbgen] is timed separately as [tpch.dbgen_s])
   and load it as the fixture. Returns the fixture and the generation
   time. *)
let setup ~seed ~size kind : fixture * float =
  let gen () =
    if is_tpch kind then
      let db, stats = Tpch.Dbgen.setup ~seed ~sf:size.sf () in
      (db, Some stats)
    else begin
      let db = Database.create ~name:db_name () in
      ignore (Database.exec db orders_ddl);
      ignore (Database.exec db "CREATE INDEX orders_pk ON orders (o_orderkey)");
      let rng = Prng.create ~seed in
      ignore
        (Database.bulk_insert db ~table:"orders"
           (List.init size.fixture_rows (fun k ->
                Tpch.Dbgen.order_row rng ~orderkey:(k + 1)
                  ~n_customer:sessions_customers)));
      (db, None)
    end
  in
  let (db, stats), dbgen_s = Spans.timed "tpch.dbgen" gen in
  ({ images = images_of db; stats }, dbgen_s)

(* ---------------------------------------------------------------- *)
(* Statement timing                                                  *)

(* One timed statement: client, index in that client's stream, whether it
   is a read, and its start/end on the benchmark clock. *)
type stmt_time = {
  st_client : int;
  st_index : int;
  st_read : bool;
  st_t0 : float;
  st_t1 : float;
}

(* Where the client programs report. Reset by the harness before each
   phase; replays report here too. *)
type sink = {
  mutable times : stmt_time list;
  mutable errors : int;
  mutable select_fps : string list;  (** tpch: Select results, last first *)
}

let sink = { times = []; errors = 0; select_fps = [] }

let reset_sink () =
  sink.times <- [];
  sink.errors <- 0;
  sink.select_fps <- []

(* Run one statement from a client program: time it, record a span under
   [parent] when tracing, and turn an error into a counted failure and an
   "error" line in the client's output. *)
let timed_stmt ~client ~index ~read ~parent f =
  let t0 = Spans.now () in
  let out =
    try f ()
    with Errors.Db_error _ | Ldv_errors.Error _ ->
      sink.errors <- sink.errors + 1;
      "error"
  in
  let t1 = Spans.now () in
  sink.times <-
    { st_client = client; st_index = index; st_read = read; st_t0 = t0;
      st_t1 = t1 }
    :: sink.times;
  if !Spans.enabled then
    Spans.record ~id:(Spans.fresh_id ()) ~parent
      ~req:(Printf.sprintf "%s/c%d.%d" !Spans.request client index)
      "stmt" t0 t1;
  out

(* Bracket a client program's body in an "app" span, the parent of its
   statement spans. *)
let app_body ~client f =
  let t0 = Spans.now () in
  let parent = !Spans.current in
  let id = Spans.start () in
  f id;
  Spans.finish ~id ~parent
    ~req:(Printf.sprintf "%s/c%d" !Spans.request client)
    "app" t0

(* ---------------------------------------------------------------- *)
(* The tpch workloads: the paper's §IX application                  *)

type tpch_inputs = {
  t_query : string;  (** the Table II query of the Select step *)
  t_inserts : string array;
  t_updates : string array;
  t_cfg : Tpch.Workload.config;  (** file layout and Select count of the app *)
}

let tpch_inputs ~seed ~size kind (stats : Tpch.Dbgen.stats) : tpch_inputs =
  let vid = if kind = Tpch_scan then "Q1-1" else "Q2-2" in
  let q = Tpch.Queries.find stats vid in
  let cfg =
    { (Tpch.Workload.default_config ~query_sql:q.Tpch.Queries.sql ~stats) with
      Tpch.Workload.n_insert = size.n_insert;
      n_select = size.n_select;
      n_update = size.n_update }
  in
  let rng = Prng.create ~seed:(seed + 1) in
  let t_inserts =
    Array.init size.n_insert (fun k ->
        Tpch.Workload.insert_sql_of_row
          (Tpch.Dbgen.order_row rng
             ~orderkey:(cfg.Tpch.Workload.base_orderkey + k)
             ~n_customer:stats.Tpch.Dbgen.n_customer))
  in
  let t_updates =
    Array.init size.n_update (fun k ->
        Printf.sprintf
          "UPDATE orders SET o_comment = 'refreshed comment %d' WHERE \
           o_orderkey = %d"
          k
          (1 + Prng.int rng stats.Tpch.Dbgen.n_orders))
  in
  { t_query = q.Tpch.Queries.sql; t_inserts; t_updates;
    t_cfg = cfg }

(* Inserts, then the Select step (the first select's rows go to the
   output file), then updates; every statement timed around
   [Client.exec] / [Client.query]. *)
let tpch_app (inp : tpch_inputs) : Minios.Program.program =
 fun env ->
  app_body ~client:0 @@ fun parent ->
  ignore (Minios.Program.read_file env inp.t_cfg.Tpch.Workload.config_path);
  let conn = Dbclient.Client.connect env ~db:db_name in
  let n_ins = Array.length inp.t_inserts in
  let exec index sql =
    ignore
      (timed_stmt ~client:0 ~index ~read:false ~parent (fun () ->
           string_of_int (Dbclient.Client.exec conn sql)))
  in
  Array.iteri exec inp.t_inserts;
  let n_select = inp.t_cfg.Tpch.Workload.n_select in
  for s = 1 to n_select do
    let rows = ref [] in
    let fp =
      timed_stmt ~client:0 ~index:(n_ins + s - 1) ~read:true ~parent
        (fun () ->
          rows := Dbclient.Client.query conn inp.t_query;
          Ldv_core.Audit.rows_fingerprint !rows)
    in
    sink.select_fps <- fp :: sink.select_fps;
    if s = 1 then
      Minios.Program.write_file env inp.t_cfg.Tpch.Workload.out_path
        (Tpch.Workload.render_rows !rows)
  done;
  Array.iteri
    (fun k sql -> exec (n_ins + n_select + k) sql)
    inp.t_updates;
  Dbclient.Client.close conn

let tpch_app_name = "ldvbench-tpch-app"

(* A kernel with the app's files and a server over a fresh copy of the
   fixture. *)
let tpch_env (fx : fixture) (inp : tpch_inputs) =
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel (fresh_db fx) in
  Tpch.Workload.install_runtime kernel;
  let binary = Tpch.Workload.install_app_files kernel inp.t_cfg in
  (kernel, server, binary)

(* ---------------------------------------------------------------- *)
(* sessions-oltp: the point-statement mix                            *)

type op = Point_select | Point_update | Insert | Group_count

type stmt = { op : op; sql : string }

let is_read = function Point_select | Group_count -> true | _ -> false

(* A grouped count over a 20-key range: the scan is the whole table,
   the lineage stays small. *)
let group_count_sql lo =
  Printf.sprintf
    "SELECT o_orderstatus, count(*) FROM orders WHERE o_orderkey BETWEEN %d \
     AND %d GROUP BY o_orderstatus"
    lo (lo + 19)

(* Each session's statement stream: exactly 50% point SELECT, 30% point
   UPDATE, 15% INSERT and 5% grouped COUNT, in an order and over keys
   drawn from the seed. Inserted keys are private to the session. *)
let session_mix ~seed ~size client : stmt array =
  let rng = Prng.create ~seed:((seed * 7919) + client + 1) in
  let n = size.per_client in
  let ops =
    Array.init n (fun j ->
        if j < n * 50 / 100 then Point_select
        else if j < n * 80 / 100 then Point_update
        else if j < n * 95 / 100 then Insert
        else Group_count)
  in
  for j = n - 1 downto 1 do
    let k = Prng.int rng (j + 1) in
    let t = ops.(j) in
    ops.(j) <- ops.(k);
    ops.(k) <- t
  done;
  Array.mapi
    (fun j op ->
      let key () = 1 + Prng.int rng size.fixture_rows in
      let sql =
        match op with
        | Point_select ->
          Printf.sprintf
            "SELECT o_orderkey, o_orderstatus, o_totalprice, o_comment FROM \
             orders WHERE o_orderkey = %d"
            (key ())
        | Point_update ->
          Printf.sprintf
            "UPDATE orders SET o_comment = 'session %d statement %d' WHERE \
             o_orderkey = %d"
            client j (key ())
        | Insert ->
          Tpch.Workload.insert_sql_of_row
            (Tpch.Dbgen.order_row rng
               ~orderkey:(size.fixture_rows + 1 + (client * n) + j)
               ~n_customer:sessions_customers)
        | Group_count -> group_count_sql (key ())
      in
      { op; sql })
    ops

let client_name kind i = Printf.sprintf "ldvbench-%s-client-%d" (name kind) i
let client_binary i = Printf.sprintf "/app/bin/ldvbench-client-%d" i
let client_out i = Printf.sprintf "/out/client-%d.txt" i
let client_libs = [ "/usr/lib/libc.so.6"; "/opt/minidb/lib/libpq.so.5" ]

(* A closed-loop client: each statement is sent after the previous reply.
   Every reply is summarized into the client's output file, which a
   replay must reproduce byte for byte. *)
let session_client (stmts : stmt array) i : Minios.Program.program =
 fun env ->
  app_body ~client:i @@ fun parent ->
  let conn = Dbclient.Client.connect env ~db:db_name in
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun j st ->
      let out =
        timed_stmt ~client:i ~index:j ~read:(is_read st.op) ~parent
          (fun () ->
            if is_read st.op then
              Ldv_core.Audit.rows_fingerprint
                (Dbclient.Client.query conn st.sql)
            else string_of_int (Dbclient.Client.exec conn st.sql))
      in
      Buffer.add_string buf out;
      Buffer.add_char buf '\n')
    stmts;
  Dbclient.Client.close conn;
  Minios.Program.write_file env (client_out i) (Buffer.contents buf)

(* A kernel with the clients' files and a server over a fresh copy of
   the fixture. *)
let sessions_env (fx : fixture) =
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel (fresh_db fx) in
  let vfs = Minios.Kernel.vfs kernel in
  Minios.Vfs.write_opaque vfs ~path:"/usr/lib/libc.so.6" 2_000_000;
  Minios.Vfs.write_opaque vfs ~path:"/opt/minidb/lib/libpq.so.5" 300_000;
  for i = 0 to sessions - 1 do
    Minios.Vfs.write_opaque vfs ~path:(client_binary i) 120_000
  done;
  (kernel, server)

let session_clients kind (mixes : stmt array array) : Ldv_core.Audit.client list
    =
  List.init sessions (fun i ->
      { Ldv_core.Audit.cl_name = client_name kind i;
        cl_binary = client_binary i;
        cl_libs = client_libs;
        cl_program = session_client mixes.(i) i })
