package repro.graph

import scala.collection.mutable
import repro.{SparkSpec, TestGraphs}
import repro.TestGraphs.sameGraph
import repro.core.Hoeffding
import repro.eval.Harness
import repro.synthgraph.SynthGraph

class PriorityBfsSpec extends SparkSpec {

  private def gq(lg: LocalGraph, q: Long, minSize: Long, gamma: Double = 0.5): Set[Long] = {
    val g = TestGraphs.toAttributed(spark, lg)
    PriorityBfs.collectGq(g, q, minSize, gamma).ids.toSet
  }

  test("collectGq: always contains q") {
    val lg = TestGraphs.randomLocal(20, 0.2, seed = 1)
    assert(gq(lg, 0L, 5).contains(0L))
  }

  test("collectGq: returns exactly minSize nodes when reachable") {
    val lg = TestGraphs.randomLocal(40, 0.3, seed = 2)
    assert(gq(lg, 0L, 17).size === 17)
  }

  test("collectGq: returns all reachable nodes when minSize exceeds them") {
    val lg = TestGraphs.local(6, Seq((0, 1), (1, 2), (3, 4))) // component of 0 = {0,1,2}
    assert(gq(lg, 0L, 100) === Set(0L, 1L, 2L))
  }

  test("collectGq: layers before the last are kept whole (BFS order)") {
    // star: 0 at centre, leaves 1..9; asking for 4 nodes keeps q and trims leaves
    val lg = TestGraphs.local(10, (1 until 10).map(i => (0, i)))
    val got = gq(lg, 0L, 4)
    assert(got.size === 4)
    assert(got.contains(0L))
  }

  test("collectGq: the overshooting layer is trimmed by smallest f") {
    // path 0-1, 0-2 ... leaves have f equal to their attribute distance to 0;
    // TestGraphs.local gives node i the numeric i/(n-1) so f grows with id.
    val lg = TestGraphs.local(8, (1 until 8).map(i => (0, i)))
    val got = gq(lg, 0L, 4, gamma = 0.0)
    // the three smallest-f leaves are 1,2,3
    assert(got === Set(0L, 1L, 2L, 3L))
  }

  test("collectGq: minSize=1 returns just q") {
    val lg = TestGraphs.randomLocal(10, 0.3, seed = 3)
    assert(gq(lg, 0L, 1) === Set(0L))
  }

  test("collectGq: multi-round expansion on a long path") {
    val lg = TestGraphs.local(10, (0 until 9).map(i => (i, i + 1)))
    val got = gq(lg, 0L, 6)
    assert(got === (0L until 6L).toSet) // BFS from 0 walks the path in order
  }

  test("collectGq: G_q's LocalGraph equals the whole graph restricted to its ids") {
    // Path 0-1, then a star from 1 to 2..7 with a chord 2-3 inside that last
    // layer, plus 3-4 and 4-5 and an edge 2-8 leaving G_q. With minSize 6 the
    // layer {2..7} is trimmed to its four lowest-f nodes, which are never
    // expanded, so only the last-layer fetch can find the chords among them.
    val lg = TestGraphs.local(9,
      Seq((0, 1)) ++ (2 to 7).map(i => (1, i)) ++ Seq((2, 3), (3, 4), (4, 5), (2, 8)))
    val g = TestGraphs.toAttributed(spark, lg)
    val got = PriorityBfs.collectGq(g, 0L, 6, gamma = 0.0)
    val whole = Harness.collectWhole(g)
    assert(got.ids.toSet === Set(0L, 1L, 2L, 3L, 4L, 5L))
    assert(got.ids.head === 0L)
    got.ids.indices.foreach { i =>
      val j = whole.indexOf(got.ids(i))
      assert(got.text(i) === whole.text(j))
      assert(got.num(i).toSeq === whole.num(j).toSeq)
      assert(got.adj(i).map(got.ids).toSet === whole.adj(j).map(whole.ids).toSet.filter(got.ids.contains))
    }
    assert(got.edgeCount === 8) // 0-1, 1-2..1-5, 2-3, 3-4, 4-5
  }

  // ---- the node store against the filter-per-layer oracle -----------------

  /** A planted graph of two blocks, plus an isolated node 900 and a separate
    * edge 901-902.
    */
  private lazy val planted: AttributedGraph = {
    val g = SynthGraph.homogeneous(spark, SynthGraph.HomoSpec(
      nCommunities = 2, communitySize = 12, intraDeg = 6, interDeg = 1, bridges = 1, seed = 31)).graph
    val nodes = g.nodes.collect().map(r => (r.getAs[Long]("id"), r.getSeq[String](2), r.getSeq[Double](3)))
    val dims = nodes.head._3.size
    val extra = Seq(900L, 901L, 902L).map(v => (v, Seq(s"x$v"), Seq.fill(dims)(v / 1000.0)))
    AttributedGraph.homogeneous(spark, (nodes ++ extra).toSeq,
      (g.edges.collect().map(AttributedGraph.edgePair) :+ ((901L, 902L))).toSeq).cached()
  }

  /** The Hoeffding minimum `|G_q|` on `planted` for 4-node communities
    * (k = 3) at ε = 0.85: below the 24 block nodes, so a walk from a block
    * trims its last layer.
    */
  private lazy val trimSize: Long = Hoeffding.minGqSize(planted.nodeCount, 4, 0.85, 0.05)

  /** BFS depth of the farthest node from index 0. */
  private def depth(lg: LocalGraph): Int = {
    val dist = Array.fill(lg.n)(-1)
    dist(0) = 0
    val queue = mutable.Queue(0)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      lg.adj(u).foreach(v => if (dist(v) < 0) { dist(v) = dist(u) + 1; queue += v })
    }
    dist.max
  }

  /** `FromScratch.walk` on `planted` for every node at the sizes 1,
    * [[trimSize]] and `|V| + 1`, keyed by `(q, minSize)`.
    */
  private lazy val oracle: Map[(Long, Long), LocalGraph] = {
    val g = planted
    val adjacency = AttributedGraph.adjacency(g.edges).cache()
    val walks = for {
      minSize <- Seq(1L, trimSize, g.nodeCount + 1)
      q <- g.nodes.collect().map(_.getAs[Long]("id")).toSeq
    } yield (q, minSize) -> FromScratch.walk(g, adjacency, q, minSize, gamma = 0.5)
    adjacency.unpersist()
    walks.toMap
  }

  test("collectGq equals the filter-per-layer oracle for every node and three sizes") {
    assert(trimSize < 24)
    var trimmed = 0
    oracle.foreach { case ((q, minSize), want) =>
      val got = PriorityBfs.collectGq(planted, q, minSize, gamma = 0.5)
      assert(sameGraph(got, want), s"q=$q minSize=$minSize")
      if (minSize == trimSize && got.n == minSize) trimmed += 1
    }
    assert(trimmed >= 20)
  }

  test("a walk over a store of several partitions equals the oracle, in at most one job per layer") {
    val store = PriorityBfs.NodeStore.build(planted, pairsPerPartition = 10)
    assert(store.nodes.getNumPartitions > 4)
    oracle.foreach { case ((q, minSize), want) =>
      val (got, jobs) = jobsIn(s"parts-$q-$minSize")(PriorityBfs.walk(store.fetch(_, minSize), q, minSize, 0.5))
      assert(sameGraph(got, want), s"q=$q minSize=$minSize")
      assert(jobs <= depth(got) + 1, s"q=$q minSize=$minSize")
    }
  }

  test("collectGq: an absent q throws, naming it; an isolated q returns {q}") {
    planted.nodeStore
    val (e, jobs) = jobsIn("absent")(intercept[IllegalArgumentException](PriorityBfs.collectGq(planted, 99L, 10, 0.5)))
    assert(e.getMessage.contains("99"))
    assert(jobs === 1)
    val lone = PriorityBfs.collectGq(planted, 900L, 10, 0.5)
    assert(lone.ids.toSeq === Seq(900L))
    assert(lone.edgeCount === 0)
  }

  test("collectGq: a walk on a store of one partition runs one job") {
    val path = TestGraphs.toAttributed(spark, TestGraphs.local(10, (0 until 9).map(i => (i, i + 1))))
    path.nodeStore // built once, outside the counted walks
    // The fetch of {0} reads ahead through the layers {1}..{5}.
    val (lg, jobs) = jobsIn("path")(PriorityBfs.collectGq(path, 0L, 6, 0.5))
    assert(lg.ids.toSeq === (0L until 6L))
    assert(jobs === 1)

    val g = planted
    g.nodeStore
    Seq(0L, 7L, 13L, 20L).foreach { q =>
      val (gq, jobs) = jobsIn(s"planted-$q")(PriorityBfs.collectGq(g, q, trimSize, 0.5))
      assert(gq.n === trimSize, s"q=$q")
      assert(depth(gq) > 1, s"q=$q")
      assert(jobs === 1, s"q=$q")
    }
    assert(jobsIn("minSize-1")(PriorityBfs.collectGq(g, 0L, 1, 0.5))._2 === 1)
  }

  test("NodeStore.build runs two Spark jobs: one counts the pairs, one builds the records") {
    val g = planted
    g.numStats
    assert(jobsIn("store")(PriorityBfs.NodeStore.build(g))._2 === 2)
  }

  test("collectGq on a store of several partitions: the first layer runs one task") {
    val g = planted
    val store = PriorityBfs.NodeStore.build(g, pairsPerPartition = 10)
    assert(store.nodes.getNumPartitions > 4)
    val (lg, ids) = jobIdsIn("partitioned")(PriorityBfs.walk(store.fetch(_, trimSize), 0L, trimSize, 0.5))
    assert(sameGraph(lg, PriorityBfs.collectGq(g, 0L, trimSize, 0.5)))
    val tracker = spark.sparkContext.statusTracker
    val tasks = ids.map(j => tracker.getJobInfo(j).get.stageIds.map(tracker.getStageInfo(_).get.numTasks).sum)
    assert(tasks.head === 1)
    assert(tasks.forall(_ <= store.nodes.getNumPartitions))
  }
}
