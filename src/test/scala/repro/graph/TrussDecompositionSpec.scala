package repro.graph

import repro.{Oracle, SparkSpec, TestGraphs}

class TrussDecompositionSpec extends SparkSpec {

  test("edgeSupport: triangle has support 1 on every edge") {
    val g = TestGraphs.toAttributed(spark, TestGraphs.local(3, Seq((0, 1), (1, 2), (0, 2))))
    val sup = TrussDecomposition.edgeSupport(g.edges).collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getLong(2)).toMap
    assert(sup.values.toSet === Set(1L))
    assert(sup.size === 3)
  }

  test("edgeSupport: K4 has support 2 on every edge") {
    val g = TestGraphs.toAttributed(spark,
      TestGraphs.local(4, for (a <- 0 until 4; b <- a + 1 until 4) yield (a, b)))
    val sup = TrussDecomposition.edgeSupport(g.edges).collect().map(_.getLong(2))
    assert(sup.length === 6)
    assert(sup.toSet === Set(2L))
  }

  test("edgeSupport: edge in no triangle reports 0") {
    val g = TestGraphs.toAttributed(spark, TestGraphs.local(4, Seq((0, 1), (1, 2), (0, 2), (2, 3))))
    val sup = TrussDecomposition.edgeSupport(g.edges).collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getLong(2)).toMap
    assert(sup((2L, 3L)) === 0L)
  }

  test("oracle: edge support matches DuckDB correlated count") {
    val lg = TestGraphs.randomLocal(16, 0.35, seed = 61)
    val g = TestGraphs.toAttributed(spark, lg)
    val sparkDf = TrussDecomposition.edgeSupport(g.edges)
    val sql =
      """WITH e AS (SELECT CAST(src AS BIGINT) AS a, CAST(dst AS BIGINT) AS b FROM edges),
        |sym AS (SELECT a, b FROM e UNION ALL SELECT b AS a, a AS b FROM e)
        |SELECT e.a AS src, e.b AS dst,
        |  (SELECT COUNT(*) FROM sym s1 JOIN sym s2 ON s1.b = s2.b
        |   WHERE s1.a = e.a AND s2.a = e.b) AS support
        |FROM e""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "edges" -> g.edges.select("src", "dst"))
  }

  test("kTrussEdges: matches the brute-force truss on random graphs") {
    (1 to 3).foreach { s =>
      val lg = TestGraphs.randomLocal(20, 0.3, seed = 70 + s)
      val g = TestGraphs.toAttributed(spark, lg)
      (3 to 4).foreach { k =>
        val got = TrussDecomposition.kTrussEdges(g.edges, k).collect()
          .map(r => (r.getLong(0), r.getLong(1))).toSet
        val expected = TestGraphs.bruteTrussEdges(lg, k)
          .map { case (u, v) => (lg.ids(u), lg.ids(v)) }
          .map { case (a, b) => (math.min(a, b), math.max(a, b)) }
        assert(got === expected, s"seed=$s k=$k")
      }
    }
  }

  test("kTrussEdges: k=2 keeps all edges") {
    val lg = TestGraphs.local(4, Seq((0, 1), (1, 2)))
    val g = TestGraphs.toAttributed(spark, lg)
    assert(TrussDecomposition.kTrussEdges(g.edges, 2).count() === 2)
  }

  test("maximalConnectedKTruss agrees with the local TrussModel") {
    (1 to 3).foreach { s =>
      val lg = TestGraphs.randomLocal(22, 0.3, seed = 90 + s)
      val g = TestGraphs.toAttributed(spark, lg)
      val k = 3
      val got = new TrussModel(k).maximalConnected(g, 0L)
      val expected = new TrussModel(k).maximal(lg, lg.allAlive, 0).map(lg.ids(_)).toSet
      assert(got.ids.toSet === expected, s"seed=$s")
      // Only truss edges are collected.
      val truss = TestGraphs.bruteTrussEdges(lg, k).map { case (u, v) => Set(lg.ids(u), lg.ids(v)) }
      got.adj.indices.foreach(u => got.adj(u).foreach(v =>
        assert(truss(Set(got.ids(u), got.ids(v))), s"seed=$s edge ${got.ids(u)}-${got.ids(v)}")))
    }
  }

  test("maximalConnectedKTruss: empty when q's edges die") {
    val lg = TestGraphs.local(5, Seq((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)))
    val g = TestGraphs.toAttributed(spark, lg)
    assert(new TrussModel(3).maximalConnected(g, 4L).n === 0)
  }
}
