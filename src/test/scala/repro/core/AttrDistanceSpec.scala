package repro.core

import scala.collection.mutable
import scala.util.Random
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.{AttributedGraph, LocalGraph}

class AttrDistanceSpec extends SparkSpec {

  /** Seeded property loop (the scalatest/scalacheck bridge artifact is not
    * in the offline cache, so properties are exercised by explicit
    * deterministic sampling).
    */
  private def forAllSamples(trials: Int, seed: Long)(body: Random => Unit): Unit = {
    val rnd = new Random(seed)
    (0 until trials).foreach(_ => body(rnd))
  }

  private def randTags(rnd: Random): Set[String] =
    Seq("a", "b", "c", "d", "e").filter(_ => rnd.nextBoolean()).toSet

  // ---- Jaccard -----------------------------------------------------------

  test("jaccard: identical sets have distance 0") {
    assert(AttrDistance.jaccard(Set("a", "b"), Set("a", "b")) === 0.0)
  }

  test("jaccard: disjoint sets have distance 1") {
    assert(AttrDistance.jaccard(Set("a"), Set("b")) === 1.0)
  }

  test("jaccard: both empty is 0 by convention") {
    assert(AttrDistance.jaccard(Set.empty, Set.empty) === 0.0)
  }

  test("jaccard: one empty set is distance 1") {
    assert(AttrDistance.jaccard(Set("a"), Set.empty) === 1.0)
  }

  test("jaccard: known value") {
    // |∩|=1, |∪|=3 → 1 - 1/3
    assert(math.abs(AttrDistance.jaccard(Set("a", "b"), Set("a", "c")) - 2.0 / 3) < 1e-12)
  }

  test("jaccard: property — symmetric and in [0,1]") {
    forAllSamples(200, seed = 1) { rnd =>
      val (x, y) = (randTags(rnd), randTags(rnd))
      val d = AttrDistance.jaccard(x, y)
      assert(d >= 0.0 && d <= 1.0)
      assert(d === AttrDistance.jaccard(y, x))
    }
  }

  test("jaccard: property — d(x,x)=0") {
    forAllSamples(100, seed = 2) { rnd =>
      assert(AttrDistance.jaccard(randTags(rnd), randTags(rnd) ++ Set.empty) >= 0.0)
      val x = randTags(rnd)
      assert(AttrDistance.jaccard(x, x) === 0.0)
    }
  }

  // ---- Manhattan ---------------------------------------------------------

  test("manhattan: zero for identical vectors") {
    assert(AttrDistance.manhattan(Array(0.3, 0.7), Array(0.3, 0.7)) === 0.0)
  }

  test("manhattan: empty vectors give 0") {
    assert(AttrDistance.manhattan(Array.empty, Array.empty) === 0.0)
  }

  test("manhattan: known mean of absolute differences") {
    assert(math.abs(AttrDistance.manhattan(Array(0.0, 1.0), Array(1.0, 0.5)) - 0.75) < 1e-12)
  }

  test("manhattan: property — symmetric and nonnegative") {
    forAllSamples(200, seed = 3) { rnd =>
      val x = Array.fill(3)(rnd.nextDouble())
      val y = Array.fill(3)(rnd.nextDouble())
      val d = AttrDistance.manhattan(x, y)
      assert(d >= 0.0 && d <= 1.0 + 1e-12)
      assert(math.abs(d - AttrDistance.manhattan(y, x)) < 1e-12)
    }
  }

  test("manhattan: rejects dimension mismatch") {
    assertThrows[IllegalArgumentException] {
      AttrDistance.manhattan(Array(1.0), Array(1.0, 2.0))
    }
  }

  // ---- composite ---------------------------------------------------------

  test("composite: gamma=1 is pure textual, gamma=0 pure numerical") {
    val (t1, n1) = (Set("a"), Array(0.0))
    val (t2, n2) = (Set("b"), Array(1.0))
    assert(AttrDistance.composite(t1, n1, t2, n2, 1.0) === 1.0)
    assert(AttrDistance.composite(t1, n1, t2, n2, 0.0) === 1.0)
    assert(math.abs(AttrDistance.composite(t1, n1, t2, n2, 0.25) - 1.0) < 1e-12)
  }

  test("composite: interpolates linearly in gamma") {
    val t = AttrDistance.jaccard(Set("a", "b"), Set("a"))
    val m = AttrDistance.manhattan(Array(0.2), Array(0.9))
    val g = 0.3
    val c = AttrDistance.composite(Set("a", "b"), Array(0.2), Set("a"), Array(0.9), g)
    assert(math.abs(c - (g * t + (1 - g) * m)) < 1e-12)
  }

  // ---- delta -------------------------------------------------------------

  /** f(·,q) for q = 0 at γ = 0 on four nodes with numbers 0, 0.2, 0.4, 1. */
  private def fToZero: Array[Double] = LocalGraph.build(
    Seq(
      (0L, Set("a", "b"), Array(0.0)),
      (1L, Set("a", "b"), Array(0.2)),
      (2L, Set("a"), Array(0.4)),
      (3L, Set("c"), Array(1.0)),
    ),
    Seq((0L, 1L), (1L, 2L), (2L, 3L), (0L, 2L), (0L, 3L)),
  ).distancesTo(0, gamma = 0.0)

  test("delta: mean f over the members other than q") {
    val d = AttrDistance.delta(fToZero, mutable.BitSet(0, 1, 2), 0)
    assert(math.abs(d - (0.2 + 0.4) / 2) < 1e-12)
  }

  test("delta: a community holding only q has none, so NaN") {
    assert(AttrDistance.delta(fToZero, mutable.BitSet(0), 0).isNaN)
  }

  test("delta: the empty community is NaN") {
    assert(AttrDistance.delta(fToZero, mutable.BitSet.empty, 0).isNaN)
  }

  // ---- normalization -----------------------------------------------------

  test("numStats: per-dimension min and range") {
    val g = AttributedGraph.homogeneous(
      spark,
      Seq((0L, Seq("x"), Seq(1.0, 10.0)), (1L, Seq("y"), Seq(3.0, 10.0)), (2L, Seq("z"), Seq(2.0, 30.0))),
      Seq((0L, 1L)),
    )
    val (mins, rngs) = AttrDistance.numStats(g)
    assert(mins.toSeq === Seq(1.0, 10.0))
    assert(rngs(0) === 2.0)
    assert(rngs(1) === 20.0)
  }

  test("numStats: constant dimension gets a clamped range (no div by zero)") {
    val g = AttributedGraph.homogeneous(
      spark, Seq((0L, Seq("x"), Seq(5.0)), (1L, Seq("y"), Seq(5.0))), Seq((0L, 1L)))
    val (_, rngs) = AttrDistance.numStats(g)
    assert(rngs(0) > 0.0)
    assert(AttrDistance.normalize(Array(5.0), Array(5.0), rngs)(0) === 0.0)
  }

  test("normalize: maps min to 0 and max to 1") {
    val z = AttrDistance.normalize(Array(1.0, 30.0), Array(1.0, 10.0), Array(2.0, 20.0))
    assert(z.toSeq === Seq(0.0, 1.0))
  }

  // ---- DataFrame computation vs local mirror ------------------------------

  test("distanceToQuery agrees with the local mirror on a random graph") {
    val lg = TestGraphs.randomLocal(18, 0.3, seed = 5)
    val g = TestGraphs.toAttributed(spark, lg)
    val (mins, rngs) = AttrDistance.numStats(g)
    val gamma = 0.4
    val fMap = DistanceColumn.distanceToQuery(g, 3L, gamma)
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    val qz = AttrDistance.normalize(lg.num(3), mins, rngs)
    (0 until lg.n).foreach { i =>
      val expected = 0.4 * AttrDistance.jaccard(lg.text(i), lg.text(3)) +
        0.6 * AttrDistance.manhattan(AttrDistance.normalize(lg.num(i), mins, rngs), qz)
      assert(math.abs(fMap(i.toLong) - expected) < 1e-9, s"node $i")
    }
  }

  test("distanceToQuery: f(q,q) = 0") {
    val lg = TestGraphs.randomLocal(10, 0.4, seed = 9)
    val g = TestGraphs.toAttributed(spark, lg)
    val f = DistanceColumn.distanceToQuery(g, 2L, 0.5)
      .filter("id = 2").collect()(0).getDouble(1)
    assert(math.abs(f) < 1e-12)
  }

  test("distanceToQuery: unknown query node is rejected") {
    val lg = TestGraphs.randomLocal(5, 0.5, seed = 1)
    val g = TestGraphs.toAttributed(spark, lg)
    assertThrows[IllegalArgumentException] {
      DistanceColumn.distanceToQuery(g, 999L, 0.5)
    }
  }

  // ---- DuckDB oracle cross-checks ----------------------------------------

  test("oracle: textual Jaccard distance matches DuckDB SQL") {
    import spark.implicits._
    val lg = TestGraphs.randomLocal(14, 0.3, seed = 21, tagPool = 5, dims = 0)
    // ensure every node has at least one tag (SQL formulation needs it)
    val nodes = (0 until lg.n).map(i => (i.toLong, (lg.text(i) + "common").toSeq.sorted, Seq.empty[Double]))
    val g = AttributedGraph.homogeneous(spark, nodes, Seq((0L, 1L)))
    val sparkDf = DistanceColumn.distanceToQuery(g, 0L, gamma = 1.0)
    val nt = nodes.flatMap { case (id, tags, _) => tags.map(t => (id, t)) }.toDF("id", "attr")
    val qt = nodes.find(_._1 == 0L).get._2.map(Tuple1(_)).toDF("attr")
    val sql =
      """SELECT nt.id AS id,
        |       1.0 - CAST(SUM(CASE WHEN qt.attr IS NOT NULL THEN 1 ELSE 0 END) AS DOUBLE)
        |           / (COUNT(*) + (SELECT COUNT(*) FROM qt)
        |              - SUM(CASE WHEN qt.attr IS NOT NULL THEN 1 ELSE 0 END))
        |       AS f
        |FROM nt LEFT JOIN qt ON nt.attr = qt.attr
        |GROUP BY nt.id""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "nt" -> nt, "qt" -> qt)
  }

  test("oracle: normalized Manhattan distance matches DuckDB SQL") {
    import spark.implicits._
    val lg = TestGraphs.randomLocal(12, 0.3, seed = 33, tagPool = 0, dims = 3)
    val g = TestGraphs.toAttributed(spark, lg)
    val sparkDf = DistanceColumn.distanceToQuery(g, 0L, gamma = 0.0)
    val nn = (0 until lg.n).flatMap(i => lg.num(i).zipWithIndex.map { case (x, d) => (i.toLong, d, x) })
      .toDF("id", "dim", "x")
    val sql =
      """WITH stats AS (
        |  SELECT dim, MIN(CAST(x AS DOUBLE)) AS mn, MAX(CAST(x AS DOUBLE)) AS mx
        |  FROM nn GROUP BY dim),
        |z AS (
        |  SELECT nn.id, nn.dim,
        |         (CAST(nn.x AS DOUBLE) - stats.mn) / GREATEST(stats.mx - stats.mn, 1e-12) AS zx
        |  FROM nn JOIN stats ON nn.dim = stats.dim),
        |qz AS (SELECT dim, zx FROM z WHERE id = '0')
        |SELECT z.id AS id, AVG(ABS(z.zx - qz.zx)) AS f
        |FROM z JOIN qz ON z.dim = qz.dim
        |GROUP BY z.id""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "nn" -> nn)
  }

  test("oracle: delta(H) (mean f over members except q) matches DuckDB") {
    import spark.implicits._
    val lg = TestGraphs.randomLocal(15, 0.3, seed = 44)
    val g = TestGraphs.toAttributed(spark, lg)
    val fDf = DistanceColumn.distanceToQuery(g, 1L, 0.5)
    val members = Seq(1L, 3L, 4L, 7L, 9L).toDF("id")
    val sparkDelta = fDf.join(members, Seq("id")).filter("id <> 1")
      .agg(org.apache.spark.sql.functions.avg("f").as("delta"))
    val sql =
      """SELECT AVG(CAST(f AS DOUBLE)) AS delta
        |FROM fv JOIN c USING (id) WHERE id <> '1'""".stripMargin
    Oracle.assertEquivalent(sparkDelta, sql, "fv" -> fDf, "c" -> members)
  }
}
