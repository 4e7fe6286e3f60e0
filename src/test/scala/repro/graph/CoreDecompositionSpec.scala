package repro.graph

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestGraphs}

class CoreDecompositionSpec extends SparkSpec {

  private def localCoreSet(lg: LocalGraph, k: Int): Set[Long] = {
    val core = lg.coreness()
    (0 until lg.n).filter(core(_) >= k).map(lg.ids).toSet
  }

  private def kCoreNodes(g: AttributedGraph, k: Int): Set[Long] =
    CoreDecomposition.kCoreEdges(g.edges, k).collect()
      .flatMap(r => Seq(r.getLong(0), r.getLong(1))).toSet

  test("kCoreEdges: peel matches local coreness") {
    (1 to 3).foreach { s =>
      val lg = TestGraphs.randomLocal(40, 0.15, seed = s)
      val g = TestGraphs.toAttributed(spark, lg)
      (2 to 4).foreach { k =>
        assert(kCoreNodes(g, k) === localCoreSet(lg, k), s"seed=$s k=$k")
      }
    }
  }

  test("kCoreEdges: keeps exactly the edges inside the k-core") {
    val lg = TestGraphs.randomLocal(40, 0.15, seed = 7)
    val g = TestGraphs.toAttributed(spark, lg)
    val core = localCoreSet(lg, 3)
    val got = CoreDecomposition.kCoreEdges(g.edges, 3).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val expected = g.edges.collect().map(AttributedGraph.edgePair)
      .filter { case (a, b) => core(a) && core(b) }.toSet
    assert(got === expected)
  }

  test("kCoreEdges: empty graph / k too large → empty") {
    val lg = TestGraphs.local(5, Seq((0, 1), (1, 2)))
    val g = TestGraphs.toAttributed(spark, lg)
    assert(CoreDecomposition.kCoreEdges(g.edges, 3).isEmpty)
  }

  /** `q`'s component over the edges of `g` with both endpoints in `within`. */
  private def componentWithin(g: AttributedGraph, within: Set[Long], q: Long): LocalGraph = {
    val inSet = g.edges.filter(col("src").isin(within.toSeq: _*) && col("dst").isin(within.toSeq: _*))
    FromScratch.componentOf(g, AttributedGraph.adjacency(inSet), q)
  }

  test("componentOf: matches local BFS") {
    val lg = TestGraphs.local(7, Seq((0, 1), (1, 2), (2, 3), (4, 5)))
    val g = TestGraphs.toAttributed(spark, lg)
    val got = componentWithin(g, Set(0L, 1L, 2L, 4L, 5L), 0L)
    assert(got.ids.toSet === Set(0L, 1L, 2L))
    assert(got.ids.head === 0L)
    assert(got.edgeCount === 2)
  }

  test("componentOf: empty when q has no edge within") {
    val lg = TestGraphs.local(4, Seq((0, 1), (2, 3)))
    val g = TestGraphs.toAttributed(spark, lg)
    assert(componentWithin(g, Set(0L, 2L, 3L), 0L).n === 0)
  }

  test("componentOf: round-trips ids, edges, attributes") {
    val lg = TestGraphs.randomLocal(15, 0.3, seed = 19)
    val g = TestGraphs.toAttributed(spark, lg)
    val (mins, rngs) = g.numStats
    val back = FromScratch.componentOf(g, AttributedGraph.adjacency(g.edges), 0L)
    val reachable = FromScratch.componentOf(lg, 0, lg.allAlive)
    assert(back.n === reachable.size)
    reachable.foreach { i =>
      val j = back.indexOf(lg.ids(i))
      assert(back.text(j) === lg.text(i))
      val z = repro.core.AttrDistance.normalize(lg.num(i), mins, rngs)
      assert(back.num(j).zip(z).forall { case (a, b) => math.abs(a - b) < 1e-12 })
      assert(back.adj(j).map(back.ids(_)).toSet === lg.adj(i).map(lg.ids(_)).toSet)
    }
  }

  test("maximalConnectedKCore: equals the CoreModel result on random graphs") {
    (1 to 3).foreach { s =>
      val lg = TestGraphs.randomLocal(30, 0.2, seed = 80 + s)
      val g = TestGraphs.toAttributed(spark, lg)
      val k = 3
      val got = new CoreModel(k).maximalConnected(g, 0L).ids.toSet
      val expected = new CoreModel(k).maximal(lg, lg.allAlive, 0)
        .map(lg.ids(_)).toSet
      assert(got === expected, s"seed=$s")
    }
  }

  test("maximalConnectedKCore: empty when q does not survive") {
    val lg = TestGraphs.local(6,
      (for (a <- 0 until 4; b <- a + 1 until 4) yield (a, b)) ++ Seq((3, 4), (4, 5)))
    val g = TestGraphs.toAttributed(spark, lg)
    assert(new CoreModel(3).maximalConnected(g, 5L).n === 0)
  }

  test("maximalConnectedKCore: normalized by the whole graph's stats") {
    // K4 {0..3} with values in [0.4, 0.6]; the tail 3-4-5 outside the 3-core
    // holds the numeric min (node 4) and max (node 5).
    val raw = Seq(0.4, 0.5, 0.6, 0.5, 0.0, 1.0)
    val g = AttributedGraph.homogeneous(spark,
      raw.zipWithIndex.map { case (x, i) => (i.toLong, Seq(s"t$i"), Seq(x, 10 * x)) },
      (for (a <- 0L until 4L; b <- a + 1 until 4L) yield (a, b)) ++ Seq((3L, 4L), (4L, 5L)))
    val core = new CoreModel(3).maximalConnected(g, 0L)
    assert(core.ids.toSet === Set(0L, 1L, 2L, 3L))
    core.ids.indices.foreach { i =>
      val x = raw(core.ids(i).toInt)
      assert(core.num(i).forall(v => math.abs(v - x) < 1e-12), s"node ${core.ids(i)}")
    }
  }
}
