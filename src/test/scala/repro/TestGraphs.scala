package repro

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.util.Random
import repro.graph.{AttributedGraph, FromScratch, LocalGraph}

/** Shared hand-built graphs and reference (brute force) implementations for
  * the unit tests.
  */
object TestGraphs {

  /** Local graph from plain edge list; node attributes default to a unique
    * tag and a 1-dim numeric equal to the node index scaled into [0,1].
    */
  def local(n: Int, edges: Seq[(Int, Int)]): LocalGraph =
    LocalGraph.build(
      (0 until n).map(i => (i.toLong, Set(s"t$i"), Array(i.toDouble / math.max(n - 1, 1)))),
      edges.map { case (a, b) => (a.toLong, b.toLong) },
    )

  /** Erdős–Rényi local graph with random attributes, deterministic in seed. */
  def randomLocal(n: Int, p: Double, seed: Long, tagPool: Int = 6, dims: Int = 2): LocalGraph = {
    val rnd = new Random(seed)
    val edges = for {
      a <- 0 until n
      b <- a + 1 until n
      if rnd.nextDouble() < p
    } yield (a.toLong, b.toLong)
    val nodes = (0 until n).map { i =>
      val tags = (0 until tagPool).filter(_ => rnd.nextBoolean()).map(t => s"g$t").toSet
      (i.toLong, tags, Array.fill(dims)(rnd.nextDouble()))
    }
    LocalGraph.build(nodes, edges)
  }

  /** Same ids in the same order, and per node the same neighbour ids in the
    * same order and the same attributes.
    */
  def sameGraph(a: LocalGraph, b: LocalGraph): Boolean =
    a.ids.sameElements(b.ids) && a.ids.indices.forall { i =>
      a.adj(i).map(a.ids).sameElements(b.adj(i).map(b.ids)) &&
        a.text(i) == b.text(i) && a.num(i).sameElements(b.num(i))
    }

  /** Distributed twin of a LocalGraph (same ids/attrs/edges). */
  def toAttributed(spark: SparkSession, lg: LocalGraph): AttributedGraph = {
    val nodes = (0 until lg.n).map(i => (lg.ids(i), lg.text(i).toSeq.sorted, lg.num(i).toSeq))
    val edges = for {
      u <- 0 until lg.n
      v <- lg.adj(u)
      if u < v
    } yield (lg.ids(u), lg.ids(v))
    AttributedGraph.homogeneous(spark, nodes, edges)
  }

  /** Brute force: the connected k-core containing q with minimum δ, by
    * enumerating every node subset (only for n ≤ ~16).
    */
  def bruteBestKCore(lg: LocalGraph, q: Int, k: Int, f: Array[Double]): Option[(Set[Int], Double)] = {
    require(lg.n <= 20, "brute force is exponential")
    var best: Option[(Set[Int], Double)] = None
    val n = lg.n
    var mask = 1L
    val total = 1L << n
    while (mask < total) {
      if ((mask & (1L << q)) != 0) {
        val members = (0 until n).filter(i => (mask & (1L << i)) != 0)
        if (members.size >= k + 1) {
          val alive = mutable.BitSet(members: _*)
          val degOk = members.forall(i => lg.degreeWithin(i, alive) >= k)
          if (degOk && FromScratch.componentOf(lg, q, alive).size == members.size) {
            val others = members.filter(_ != q)
            val d = others.map(f).sum / others.size
            if (best.forall(_._2 > d + 1e-12)) best = Some((members.toSet, d))
          }
        }
      }
      mask += 1
    }
    best
  }

  /** Brute-force coreness by repeated min-degree peel. */
  def bruteCoreness(lg: LocalGraph): Array[Int] = {
    val core = new Array[Int](lg.n)
    val alive = lg.allAlive
    var k = 0
    while (alive.nonEmpty) {
      var changed = true
      while (changed) {
        changed = false
        alive.toSeq.foreach { i =>
          if (lg.degreeWithin(i, alive) <= k && alive(i)) {
            core(i) = k
            alive -= i
            changed = true
          }
        }
      }
      k += 1
    }
    core
  }

  /** Brute-force k-truss edge set: iterate support filtering on edge set. */
  def bruteTrussEdges(lg: LocalGraph, k: Int): Set[(Int, Int)] = {
    var edges = (for {
      u <- 0 until lg.n
      v <- lg.adj(u) if u < v
    } yield (u, v)).toSet
    var changed = true
    while (changed) {
      val nbr = mutable.Map.empty[Int, Set[Int]].withDefaultValue(Set.empty)
      edges.foreach { case (u, v) =>
        nbr(u) = nbr(u) + v; nbr(v) = nbr(v) + u
      }
      val keep = edges.filter { case (u, v) => nbr(u).intersect(nbr(v)).size >= k - 2 }
      changed = keep.size != edges.size
      edges = keep
    }
    edges
  }
}
