package repro.graph

import repro.{Oracle, SparkSpec}

class MetaPathSpec extends SparkSpec {

  /** Tiny DBLP-shaped graph: authors 0-3, papers 10-12, venue 20.
    * Paper 10: authors 0,1; paper 11: authors 1,2; paper 12: author 3.
    */
  private def tinyHetero: AttributedGraph = AttributedGraph.fromLocal(
    spark,
    Seq(
      (0L, "A", Seq("x"), Seq(0.1)), (1L, "A", Seq("y"), Seq(0.2)),
      (2L, "A", Seq("z"), Seq(0.3)), (3L, "A", Seq("w"), Seq(0.4)),
      (10L, "P", Seq.empty, Seq.empty), (11L, "P", Seq.empty, Seq.empty),
      (12L, "P", Seq.empty, Seq.empty), (20L, "V", Seq.empty, Seq.empty),
    ),
    Seq(
      (0L, 10L, "AP"), (1L, 10L, "AP"), (1L, 11L, "AP"), (2L, 11L, "AP"),
      (3L, 12L, "AP"), (10L, 20L, "PV"), (11L, 20L, "PV"),
    ),
  )

  test("pNeighborEdges: A-P-A co-authorship pairs") {
    val got = MetaPath.pNeighborEdges(tinyHetero, Seq("A", "P", "A"))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(got === Set((0L, 1L), (1L, 2L)))
  }

  test("pNeighborEdges: no self loops, canonical orientation") {
    val got = MetaPath.pNeighborEdges(tinyHetero, Seq("A", "P", "A")).collect()
    got.foreach(r => assert(r.getLong(0) < r.getLong(1)))
  }

  test("pNeighborEdges: longer meta-path A-P-V-P-A (same venue)") {
    val got = MetaPath.pNeighborEdges(tinyHetero, Seq("A", "P", "V", "P", "A"))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    // papers 10 and 11 share venue 20 → all of {0,1} × {1,2} pairs
    assert(got === Set((0L, 1L), (0L, 2L), (1L, 2L)))
  }

  test("pNeighborEdges: rejects a path not ending on the target type") {
    assertThrows[IllegalArgumentException] {
      MetaPath.pNeighborEdges(tinyHetero, Seq("A", "P"))
    }
  }

  test("project: nodes are the target type with attributes intact") {
    val proj = MetaPath.project(tinyHetero, Seq("A", "P", "A"))
    assert(proj.nodeCount === 4)
    val types = proj.nodes.select("ntype").distinct().collect().map(_.getString(0)).toSet
    assert(types === Set("A"))
    assert(proj.edgeCount === 2)
  }

  test("project: a (k,P)-core is a k-core of the projection") {
    // authors 0,1,2 pairwise co-authoring (via three papers) form a 2-core
    val g = AttributedGraph.fromLocal(
      spark,
      Seq(
        (0L, "A", Seq("x"), Seq(0.0)), (1L, "A", Seq("x"), Seq(0.0)),
        (2L, "A", Seq("x"), Seq(0.0)), (3L, "A", Seq("x"), Seq(0.0)),
        (10L, "P", Seq.empty, Seq.empty), (11L, "P", Seq.empty, Seq.empty),
        (12L, "P", Seq.empty, Seq.empty), (13L, "P", Seq.empty, Seq.empty),
      ),
      Seq(
        (0L, 10L, "AP"), (1L, 10L, "AP"),
        (1L, 11L, "AP"), (2L, 11L, "AP"),
        (0L, 12L, "AP"), (2L, 12L, "AP"),
        (2L, 13L, "AP"), (3L, 13L, "AP"),
      ),
    )
    val proj = MetaPath.project(g, Seq("A", "P", "A"))
    val core = CoreDecomposition.kCoreEdges(proj.edges, 2).collect()
      .flatMap(r => Seq(r.getLong(0), r.getLong(1))).toSet
    assert(core === Set(0L, 1L, 2L))
  }

  test("oracle: A-P-A projection matches DuckDB join") {
    val g = tinyHetero
    val sparkDf = MetaPath.pNeighborEdges(g, Seq("A", "P", "A"))
    val sql =
      """WITH ap AS (
        |  SELECT CAST(src AS BIGINT) AS a, CAST(dst AS BIGINT) AS p
        |  FROM edges WHERE etype = 'AP')
        |SELECT DISTINCT LEAST(x.a, y.a) AS src, GREATEST(x.a, y.a) AS dst
        |FROM ap x JOIN ap y ON x.p = y.p AND x.a <> y.a""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "edges" -> g.edges)
  }
}
