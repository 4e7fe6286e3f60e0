package repro.graph

import org.apache.spark.sql.functions._
import scala.collection.mutable
import repro.{Oracle, SparkSpec, TestGraphs}

class CoreDecompositionSpec extends SparkSpec {

  private def localCoreSet(lg: LocalGraph, k: Int): Set[Long] = {
    val core = lg.coreness()
    (0 until lg.n).filter(core(_) >= k).map(lg.ids).toSet
  }

  test("kCoreNodes: DataFrame peel matches local coreness on random graphs") {
    (1 to 3).foreach { s =>
      val lg = TestGraphs.randomLocal(40, 0.15, seed = s)
      val g = TestGraphs.toAttributed(spark, lg)
      (2 to 4).foreach { k =>
        val got = CoreDecomposition.kCoreNodes(g.edges, k).collect().map(_.getLong(0)).toSet
        assert(got === localCoreSet(lg, k), s"seed=$s k=$k")
      }
    }
  }

  test("kCoreNodes: empty graph / k too large → empty") {
    val lg = TestGraphs.local(5, Seq((0, 1), (1, 2)))
    val g = TestGraphs.toAttributed(spark, lg)
    assert(CoreDecomposition.kCoreNodes(g.edges, 3).isEmpty)
  }

  test("kCoreNodesGraphX agrees with the DataFrame peel") {
    (1 to 2).foreach { s =>
      val lg = TestGraphs.randomLocal(35, 0.18, seed = 50 + s)
      val g = TestGraphs.toAttributed(spark, lg)
      (2 to 3).foreach { k =>
        val df = CoreDecomposition.kCoreNodes(g.edges, k).collect().map(_.getLong(0)).toSet
        val gx = CoreDecomposition.kCoreNodesGraphX(g.edges, k)
        assert(gx === df, s"seed=$s k=$k")
      }
    }
  }

  test("kCoreNodesGraphX: empty edge set") {
    val g = TestGraphs.toAttributed(spark, TestGraphs.local(3, Seq.empty))
    assert(CoreDecomposition.kCoreNodesGraphX(g.edges, 1) === Set.empty[Long])
  }

  test("componentOf: matches local BFS") {
    val lg = TestGraphs.local(7, Seq((0, 1), (1, 2), (2, 3), (4, 5)))
    val g = TestGraphs.toAttributed(spark, lg)
    import spark.implicits._
    val within = Seq(0L, 1L, 2L, 4L, 5L).toDF("id")
    val got = CoreDecomposition.componentOf(g.edges, within, 0L)
      .collect().map(_.getLong(0)).toSet
    assert(got === Set(0L, 1L, 2L))
  }

  test("componentOf: q alone when isolated within the restriction") {
    val lg = TestGraphs.local(4, Seq((0, 1), (2, 3)))
    val g = TestGraphs.toAttributed(spark, lg)
    import spark.implicits._
    val got = CoreDecomposition.componentOf(g.edges, Seq(0L, 2L, 3L).toDF("id"), 0L)
      .collect().map(_.getLong(0)).toSet
    assert(got === Set(0L))
  }

  test("maximalConnectedKCore: equals the CoreModel result on random graphs") {
    (1 to 3).foreach { s =>
      val lg = TestGraphs.randomLocal(30, 0.2, seed = 80 + s)
      val g = TestGraphs.toAttributed(spark, lg)
      val k = 3
      val got = CoreDecomposition.maximalConnectedKCore(g, 0L, k)
        .collect().map(_.getLong(0)).toSet
      val expected = new CoreModel(k).maximal(lg, lg.allAlive, 0)
        .map(lg.ids(_)).toSet
      assert(got === expected, s"seed=$s")
    }
  }

  test("maximalConnectedKCore: empty when q does not survive") {
    val lg = TestGraphs.local(6,
      (for (a <- 0 until 4; b <- a + 1 until 4) yield (a, b)) ++ Seq((3, 4), (4, 5)))
    val g = TestGraphs.toAttributed(spark, lg)
    assert(CoreDecomposition.maximalConnectedKCore(g, 5L, 3).isEmpty)
  }

  test("coreness (distributed) matches local coreness") {
    val lg = TestGraphs.randomLocal(30, 0.2, seed = 91)
    val g = TestGraphs.toAttributed(spark, lg)
    val got = CoreDecomposition.coreness(g).collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    val expected = lg.coreness()
    (0 until lg.n).foreach { i =>
      assert(got(lg.ids(i)) === expected(i), s"node $i")
    }
  }

  test("oracle: degrees match DuckDB SQL") {
    val lg = TestGraphs.randomLocal(20, 0.3, seed = 17)
    val g = TestGraphs.toAttributed(spark, lg)
    val sparkDf = g.degrees
    val sql =
      """WITH sym AS (
        |  SELECT src, dst FROM e
        |  UNION ALL
        |  SELECT dst AS src, src AS dst FROM e)
        |SELECT src AS id, COUNT(*) AS degree FROM sym GROUP BY src""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "e" -> g.edges.select("src", "dst"))
  }

  test("collectLocal: round-trips ids, edges, and normalized attributes") {
    val lg = TestGraphs.randomLocal(15, 0.3, seed = 19)
    val g = TestGraphs.toAttributed(spark, lg)
    val (mins, rngs) = g.numStats
    val back = CoreDecomposition.collectLocal(g, g.nodes.select("id"))
    assert(back.n === lg.n)
    assert(back.edgeCount === lg.edgeCount)
    (0 until lg.n).foreach { i =>
      val j = back.indexOf(lg.ids(i))
      assert(back.text(j) === lg.text(i))
      val z = repro.core.AttrDistance.normalize(lg.num(i), mins, rngs)
      assert(back.num(j).zip(z).forall { case (a, b) => math.abs(a - b) < 1e-12 })
      assert(back.adj(j).map(back.ids(_)).toSet === lg.adj(i).map(lg.ids(_)).toSet)
    }
  }

  test("induced: keeps only edges with both endpoints inside") {
    val lg = TestGraphs.local(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    val g = TestGraphs.toAttributed(spark, lg)
    import spark.implicits._
    val sub = g.induced(Seq(0L, 1L, 3L).toDF("id"))
    assert(sub.nodeCount === 3)
    assert(sub.edgeCount === 1) // only (0,1)
  }
}
