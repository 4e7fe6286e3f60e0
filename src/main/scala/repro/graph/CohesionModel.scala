package repro.graph

import scala.collection.mutable

/** A structure-cohesiveness model (§II-A / §VI-C): given a set of alive
  * nodes, find the maximal connected cohesive substructure containing `q`,
  * and maintain it under node deletions ([[Peel]]). The maintenance is the
  * exact enumeration's per-state "k-core maintenance" (§IV-B); SEA's greedy
  * candidate search (§V-B) and the LocATC/VAC peels use it too. On the
  * distributed graph the same peel runs once per graph inside the
  * partitions of G's node store ([[PeelIndex]]), and q's maximal connected
  * structure (§IV-A) is walked from the peeled graph's node store; Exact and
  * the baselines then search it on the driver.
  */
trait CohesionModel {

  /** Maximal connected cohesive subgraph of `g` containing `q`, collected:
    * the walk from `q` that collects SEA's `G_q`, with no size bound, over
    * the peeled graph this model's [[PeelIndex]] keeps as a node store
    * ([[PeelIndex.structureOf]]), so nodes come layer by layer from `q`. The
    * index is built once per graph and model ([[AttributedGraph.peelIndex]]),
    * so only the first call on a graph pays the peel; each call pays the
    * walk's fetches, one Spark job on a store of one partition. The result
    * holds only surviving edges, which suffices: for any node set A, the
    * structure of G[A] equals that of the peeled graph restricted to A.
    * Attributes are normalized by the whole graph's stats. Empty when `q`
    * keeps no edge; throws `IllegalArgumentException` when `q` is not in
    * `g`, which the first fetch finds.
    */
  def maximalConnected(g: AttributedGraph, q: Long): LocalGraph = g.peelIndex(this).structureOf(q)

  /** q's maximal connected cohesive subgraph of `g[alive]`, maintained under
    * deletions by the returned [[Peel]]. Does not mutate `alive`.
    */
  def peel(g: LocalGraph, alive: mutable.BitSet, q: Int): Peel

  /** Maximal connected cohesive subgraph of `g[alive]` containing `q`: a
    * fresh peel's structure. Empty when `q` cannot be retained. Does not
    * mutate `alive`.
    */
  final def maximal(g: LocalGraph, alive: mutable.BitSet, q: Int): mutable.BitSet =
    peel(g, alive, q).alive

  /** This model's structure of all of `g`, with no query node. The cascade
    * never removes a node from index `pinnedFrom` on, nor (the truss) an edge
    * between two such nodes: another partition peels them ([[PeelIndex]]).
    */
  private[graph] def peelAll(g: LocalGraph, pinnedFrom: Int): Peel

  /** Minimum node count of a valid community under this model. */
  def minCommunitySize: Int
}

/** q's maximal connected cohesive structure on a collected graph, kept up to
  * date under node deletions (Wang & Cheng, VLDB 2012; Huang et al.,
  * SIGMOD 2014). `delete(v)` removes `v`, cascades the model's peel and drops
  * whatever leaves q's component; once q goes, the structure is empty, so it
  * is always either empty or a valid community. Every removal is pushed on a
  * trail, and `undo(mark)` pops back to the state at `mark`: a search tree
  * applies a branch, descends and pops back, with no copy per state.
  * `deleteUpTo(v, f, limit)` is the same deletion, stopped at the first node
  * it removes with `f` above `limit`: the exact search's P1 (Theorem 4)
  * rejects such a state as a duplicate, so it need not finish the cascade or
  * the component pass. With no query node (`q = -1`,
  * [[CohesionModel.peelAll]]) nothing is dropped for leaving a component.
  */
abstract class Peel(val g: LocalGraph, val q: Int, trailCapacity: Int) {

  /** The current structure. Updated in place: read it, clone it to keep it. */
  val alive: mutable.BitSet = mutable.BitSet.empty
  // `alive` as an array, for the membership tests on the hot paths, and its
  // size.
  protected val in = new Array[Boolean](g.n)
  private var size = 0

  // A removed node v is pushed as ~v (negative); a model pushes its own
  // removals (the truss model's edges) as non-negative entries.
  private val trail = new Array[Int](trailCapacity)
  private var top = 0
  private val seen = new Array[Int](g.n) // BFS stamps
  private var epoch = 0
  private val queue = new Array[Int](g.n)
  // deleteUpTo's bound: removing a node u with stopAt(u) > limit stops it.
  private var stopAt: Array[Double] = null
  private var limit = 0.0
  /** Whether the current deletion has stopped; the cascade then ends and
    * empties its queue.
    */
  protected var stopped = false

  def mark: Int = top

  /** Removes `v` (which must be in the structure) and everything that then
    * falls out of q's maximal connected structure.
    */
  def delete(v: Int): Unit = { deleteUpTo(v, null, 0.0); () }

  /** [[delete]], stopped at the first node it removes whose `f` is above
    * `limit` (none when `f` is null). Returns false when it stopped: what it
    * removed until then stays on the trail, and the structure is not a valid
    * state until `undo` pops it.
    */
  def deleteUpTo(v: Int, f: Array[Double], limit: Double): Boolean = {
    require(alive(v), s"node $v is not in the structure")
    stopAt = f; this.limit = limit; stopped = false
    removeNode(v)
    cascade()
    if (!stopped) settle()
    !stopped
  }

  /** Whether the edge from `u` to `g.adj(u)(j)` is in the structure. */
  def keeps(u: Int, j: Int): Boolean = in(u) && linked(u, j)

  /** Pops back to the state at `mark`, undoing removals in reverse order. */
  def undo(mark: Int): Unit = while (top > mark) { top -= 1; restore(trail(top)) }

  protected def push(entry: Int): Unit = { trail(top) = entry; top += 1 }

  /** Takes `u` out of the structure and pushes its removal; stops a bounded
    * deletion when `u` is above its limit.
    */
  protected def dropNode(u: Int): Unit = {
    in(u) = false; alive -= u; size -= 1; push(~u)
    if (stopAt != null && stopAt(u) > limit) stopped = true
  }

  /** Puts `u` back into the structure. */
  protected def addNode(u: Int): Unit = { in(u) = true; alive += u; size += 1 }

  /** Reverts one trail entry. */
  protected def restore(entry: Int): Unit

  /** Whether `g.adj(u)(j)` is still linked to `u` inside the structure. */
  protected def linked(u: Int, j: Int): Boolean

  /** Removes `u` from the structure, queueing what may have to follow. */
  protected def removeNode(u: Int): Unit

  /** Peels what the last removals left below the model's threshold, until
    * done or `stopped`; leaves the queue empty either way.
    */
  protected def cascade(): Unit

  /** Drops every node outside q's component, and everything once q is gone;
    * nothing with no query node. The BFS from q ends once it has reached
    * every node of the structure. Removing a whole component changes no
    * degree or support inside q's.
    */
  private def settle(): Unit = if (q >= 0) {
    var reached = 0
    if (in(q)) {
      epoch += 1
      seen(q) = epoch; queue(0) = q; reached = 1
      var head = 0
      while (head < reached && reached < size) {
        val u = queue(head); head += 1
        val a = g.adj(u); var j = 0
        while (j < a.length) {
          val w = a(j)
          if (seen(w) != epoch && linked(u, j)) {
            seen(w) = epoch; queue(reached) = w; reached += 1
          }
          j += 1
        }
      }
    }
    if (reached < size) {
      var c = 0
      alive.foreach(u => if (reached == 0 || seen(u) != epoch) { queue(c) = u; c += 1 })
      var i = 0
      while (i < c && !stopped) { if (in(queue(i))) removeNode(queue(i)); i += 1 }
      cascade() // touches no live node: it only drains what the drop queued
    }
  }

  /** Finishes a subclass's constructor: peels the start set down to q's
    * maximal connected structure, which becomes the base `undo` cannot pass.
    */
  protected def build(): Unit = {
    alive.foreach(in(_) = true)
    size = alive.size
    cascade()
    settle()
    top = 0
  }
}

/** Connected k-core (Definitions 2–3): peel nodes with degree < k, then take
  * q's connected component. One peel + one component pass suffices: removing
  * other components does not change degrees inside q's component. The peel
  * keeps each node's degree within the structure; a deletion decrements the
  * neighbours of each removed node, and undo re-increments them in reverse
  * order. A case class, so that equal `k` share one cached peel per graph.
  */
final case class CoreModel(k: Int) extends CohesionModel {
  require(k >= 1, "k-core requires k >= 1")

  override def minCommunitySize: Int = k + 1

  override def peel(g: LocalGraph, alive: mutable.BitSet, q: Int): Peel = new CorePeel(g, alive, q, g.n)

  override private[graph] def peelAll(g: LocalGraph, pinnedFrom: Int): Peel =
    new CorePeel(g, g.allAlive, -1, pinnedFrom)

  private final class CorePeel(g: LocalGraph, start: mutable.BitSet, q: Int, pinnedFrom: Int)
      extends Peel(g, q, g.n) {
    // A removed node's degree stays frozen until undo brings it back.
    private val deg = new Array[Int](g.n)
    private val pending = new Array[Int](g.n)
    private var pend = 0

    alive ++= start
    alive.foreach { u =>
      deg(u) = g.degreeWithin(u, alive)
      if (deg(u) < k && u < pinnedFrom) { pending(pend) = u; pend += 1 }
    }
    build()

    override protected def linked(u: Int, j: Int): Boolean = in(g.adj(u)(j))

    override protected def removeNode(u: Int): Unit = {
      dropNode(u)
      val a = g.adj(u); var j = 0
      while (j < a.length) {
        val w = a(j)
        if (in(w)) {
          deg(w) -= 1
          if (deg(w) == k - 1 && w < pinnedFrom) { pending(pend) = w; pend += 1 }
        }
        j += 1
      }
    }

    override protected def cascade(): Unit = {
      while (pend > 0 && !stopped) { pend -= 1; val u = pending(pend); if (in(u)) removeNode(u) }
      pend = 0
    }

    override protected def restore(entry: Int): Unit = {
      val u = ~entry
      val a = g.adj(u); var j = 0
      while (j < a.length) { if (in(a(j))) deg(a(j)) += 1; j += 1 }
      addNode(u)
    }
  }
}

/** Connected k-truss (§VI-C): every edge lies in ≥ k−2 triangles within the
  * truss; community = q's connected component over surviving edges. The peel
  * keeps each edge's triangle support within the structure and deletes edges
  * by cascade; a node is in the structure while it keeps an edge in q's
  * component. The truss is unique, so the cascade order does not change the
  * result. A surviving edge lies in ≥ k−2 triangles, so a non-empty structure
  * holds at least k nodes. A case class, so that equal `k` share one cached
  * peel per graph.
  */
final case class TrussModel(k: Int) extends CohesionModel {
  require(k >= 2, "k-truss requires k >= 2")

  override def minCommunitySize: Int = k

  override def peel(g: LocalGraph, alive: mutable.BitSet, q: Int): Peel = new TrussPeel(g, alive, q, g.n)

  override private[graph] def peelAll(g: LocalGraph, pinnedFrom: Int): Peel =
    new TrussPeel(g, g.allAlive, -1, pinnedFrom)

  private final class TrussPeel(g: LocalGraph, start: mutable.BitSet, q: Int, pinnedFrom: Int)
      extends Peel(g, q, g.n + g.edgeCount.toInt) {
    // Edge ids: eid(u)(j) names the edge to g.adj(u)(j); ends(2e), ends(2e+1)
    // are its endpoints.
    private val eid: Array[Array[Int]] = g.adj.map(a => new Array[Int](a.length))
    private val ends: Array[Int] = {
      val at = mutable.LongMap.empty[Int]
      val b = mutable.ArrayBuilder.make[Int]
      for (u <- 0 until g.n; j <- g.adj(u).indices) {
        val v = g.adj(u)(j)
        eid(u)(j) = at.getOrElseUpdate(math.min(u, v).toLong << 32 | math.max(u, v), {
          b += u; b += v; at.size
        })
      }
      b.result()
    }
    private val m = ends.length / 2
    private def pinned(e: Int): Boolean = ends(2 * e) >= pinnedFrom && ends(2 * e + 1) >= pinnedFrom
    // A removed edge's support stays frozen until undo brings it back.
    private val live = new Array[Boolean](m)
    private val support = new Array[Int](m)
    private val edgesAt = new Array[Int](g.n) // live edges per node
    private val pending = new Array[Int](m)
    private var pend = 0
    private val mate = new Array[Int](g.n) // triangle search: u's edge to w
    private val mateStamp = new Array[Int](g.n)
    private var mateEpoch = 0

    alive ++= start
    (0 until m).foreach { e =>
      val u = ends(2 * e); val v = ends(2 * e + 1)
      if (alive(u) && alive(v)) {
        support(e) = triangles(u, v, +1)
        live(e) = true; edgesAt(u) += 1; edgesAt(v) += 1
      }
    }
    alive.filterInPlace(edgesAt(_) > 0)
    (0 until m).foreach(e => if (live(e) && support(e) < k - 2 && !pinned(e)) { pending(pend) = e; pend += 1 })
    build()

    /** Adds `delta` to the support of both other edges of every live
      * triangle on `u`–`v`; returns how many there are. An unpinned edge
      * whose support drops below k−2 is queued.
      */
    private def triangles(u: Int, v: Int, delta: Int): Int = {
      mateEpoch += 1
      val au = g.adj(u); var j = 0
      while (j < au.length) {
        val e = eid(u)(j)
        if (live(e)) { mate(au(j)) = e; mateStamp(au(j)) = mateEpoch }
        j += 1
      }
      var count = 0
      val av = g.adj(v); j = 0
      while (j < av.length) {
        val w = av(j); val e2 = eid(v)(j)
        if (live(e2) && mateStamp(w) == mateEpoch) {
          val e1 = mate(w)
          support(e1) += delta; support(e2) += delta; count += 1
          if (delta < 0 && support(e1) == k - 3 && !pinned(e1)) { pending(pend) = e1; pend += 1 }
          if (delta < 0 && support(e2) == k - 3 && !pinned(e2)) { pending(pend) = e2; pend += 1 }
        }
        j += 1
      }
      count
    }

    private def removeEdge(e: Int): Unit = {
      val u = ends(2 * e); val v = ends(2 * e + 1)
      live(e) = false
      push(e)
      triangles(u, v, -1)
      edgesAt(u) -= 1; edgesAt(v) -= 1
      if (edgesAt(u) == 0) dropNode(u)
      if (edgesAt(v) == 0) dropNode(v)
    }

    override protected def linked(u: Int, j: Int): Boolean = live(eid(u)(j))

    override protected def removeNode(u: Int): Unit = {
      val ids = eid(u); var j = 0
      while (j < ids.length) { if (live(ids(j))) removeEdge(ids(j)); j += 1 }
    }

    override protected def cascade(): Unit = {
      while (pend > 0 && !stopped) { pend -= 1; val e = pending(pend); if (live(e)) removeEdge(e) }
      pend = 0
    }

    override protected def restore(entry: Int): Unit =
      if (entry < 0) addNode(~entry)
      else {
        val u = ends(2 * entry); val v = ends(2 * entry + 1)
        triangles(u, v, +1)
        edgesAt(u) += 1; edgesAt(v) += 1
        live(entry) = true
      }
  }
}
