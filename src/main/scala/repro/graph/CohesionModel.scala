package repro.graph

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** A structure-cohesiveness model (§II-A / §VI-C): given a set of alive
  * nodes, compute the maximal connected cohesive substructure containing `q`.
  * Used by the exact enumeration (§IV-B, "k-core maintenance" per state) and
  * by SEA's greedy candidate search (§V-B). On the distributed graph the
  * model peels `G` with Spark and collects q's maximal connected structure
  * (§IV-A), which Exact and the baselines then search on the driver.
  */
trait CohesionModel {

  /** The edges (`src`, `dst`) that survive this model's distributed peel. */
  def peelEdges(edges: DataFrame): DataFrame

  /** Maximal connected cohesive subgraph of `g` containing `q`, collected:
    * the driver BFS from `q` over the edges that survive this model's
    * distributed peel. The peel is cached per graph and model
    * ([[AttributedGraph.peeledAdjacency]]), so only the first call on a graph
    * pays it; each call pays the BFS and the attribute fetch. The result
    * holds only surviving edges, which suffices: for any node set A, the
    * structure of G[A] equals that of the peeled graph restricted to A.
    * Attributes are normalized by the whole graph's stats. Empty when `q`
    * keeps no edge; throws `IllegalArgumentException` when `q` is not in `g`.
    */
  def maximalConnected(g: AttributedGraph, q: Long): LocalGraph =
    PriorityBfs.componentOf(g, g.peeledAdjacency(this), q)

  /** Maximal connected cohesive subgraph of `g[alive]` containing `q`.
    * Returns an empty set when `q` cannot be retained.
    * Must not mutate `alive`.
    */
  def maximal(g: LocalGraph, alive: mutable.BitSet, q: Int): mutable.BitSet

  /** Minimum node count of a valid community under this model. */
  def minCommunitySize: Int
}

/** Connected k-core (Definitions 2–3): peel nodes with degree < k, then take
  * q's connected component. One peel + one component pass suffices: removing
  * other components does not change degrees inside q's component. A case
  * class, so that equal `k` share one cached peel per graph.
  */
final case class CoreModel(k: Int) extends CohesionModel {
  require(k >= 1, "k-core requires k >= 1")

  override def minCommunitySize: Int = k + 1

  override def peelEdges(edges: DataFrame): DataFrame = CoreDecomposition.kCoreEdges(edges, k)

  override def maximal(g: LocalGraph, alive: mutable.BitSet, q: Int): mutable.BitSet = {
    if (!alive(q)) return mutable.BitSet.empty
    val cur = alive.clone()
    val deg = new Array[Int](g.n)
    cur.foreach(i => deg(i) = g.degreeWithin(i, cur))
    val queue = mutable.Queue.empty[Int]
    cur.foreach(i => if (deg(i) < k) queue += i)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      if (cur(u)) {
        cur -= u
        g.adj(u).foreach { v =>
          if (cur(v)) {
            deg(v) -= 1
            if (deg(v) < k) queue += v
          }
        }
      }
    }
    if (!cur(q)) mutable.BitSet.empty else g.componentOf(q, cur)
  }
}

/** Connected k-truss (§VI-C): every edge lies in ≥ k−2 triangles within the
  * truss; community = q's connected component over surviving edges. We
  * recompute the edge-support fixpoint from scratch per call. The candidate
  * graphs are SEA-Truss's collected `G_q[S]` and, for Exact-Truss,
  * LocATC-Truss and VAC-Truss, q's whole collected maximal connected k-truss;
  * at lite scale both stay small enough for that. A case class, so that
  * equal `k` share one cached peel per graph.
  */
final case class TrussModel(k: Int) extends CohesionModel {
  require(k >= 2, "k-truss requires k >= 2")

  override def minCommunitySize: Int = k

  override def peelEdges(edges: DataFrame): DataFrame = TrussDecomposition.kTrussEdges(edges, k)

  override def maximal(g: LocalGraph, alive: mutable.BitSet, q: Int): mutable.BitSet = {
    if (!alive(q)) return mutable.BitSet.empty
    // Edge set as adjacency of mutable sets for O(1) membership.
    val nbr = Array.fill(g.n)(mutable.Set.empty[Int])
    alive.foreach { u =>
      g.adj(u).foreach(v => if (alive(v) && v > u) { nbr(u) += v; nbr(v) += u })
    }
    var changed = true
    while (changed) {
      changed = false
      val toDrop = mutable.ArrayBuffer.empty[(Int, Int)]
      alive.foreach { u =>
        nbr(u).foreach { v =>
          if (v > u) {
            val support = nbr(u).count(w => nbr(v).contains(w))
            if (support < k - 2) toDrop += ((u, v))
          }
        }
      }
      if (toDrop.nonEmpty) {
        changed = true
        toDrop.foreach { case (u, v) => nbr(u) -= v; nbr(v) -= u }
      }
    }
    // Connected component of q over surviving edges.
    if (nbr(q).isEmpty) return mutable.BitSet.empty
    val seen = mutable.BitSet(q)
    val queue = mutable.Queue(q)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      nbr(u).foreach(v => if (!seen(v)) { seen += v; queue += v })
    }
    if (seen.size < minCommunitySize) mutable.BitSet.empty else seen
  }
}
