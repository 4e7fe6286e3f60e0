package perfbench

import org.apache.spark.sql.functions.col
import repro.graph.AttributedGraph
import scala.collection.mutable

/** The benchmark's own copy of an attributed graph, collected once at set-up.
  * It shares no code with the program's `LocalGraph`, `CohesionModel` or
  * `AttrDistance`, so the checker does not grade the program with the
  * program's own logic. Numerical attributes are min-max normalised per
  * dimension over the whole graph, constant dimensions with range 1e-12.
  */
final class Mirror(
    val ids: Array[Long],
    val adj: Array[Set[Int]],
    text: Array[Set[String]],
    num: Array[Array[Double]],
) {
  val n: Int = ids.length
  val index: Map[Long, Int] = ids.zipWithIndex.toMap

  /** Composite distance `γ·Jaccard distance + (1−γ)·mean |Δ|` (Definition 4). */
  def distance(i: Int, j: Int, gamma: Double): Double = {
    val union = (text(i) | text(j)).size
    val jac = if (union == 0) 0.0 else 1.0 - (text(i) & text(j)).size.toDouble / union
    val dims = num(i).length
    val man = if (dims == 0) 0.0 else num(i).indices.map(d => math.abs(num(i)(d) - num(j)(d))).sum / dims
    gamma * jac + (1 - gamma) * man
  }
}

object Mirror {

  def apply(
      nodes: Seq[(Long, Set[String], Array[Double])],
      edges: Seq[(Long, Long)],
  ): Mirror = {
    val ids = nodes.map(_._1).toArray
    val index = ids.zipWithIndex.toMap
    val adj = Array.fill(ids.length)(Set.empty[Int])
    edges.foreach { case (a, b) =>
      for (i <- index.get(a); j <- index.get(b) if i != j) { adj(i) += j; adj(j) += i }
    }
    val dims = if (nodes.isEmpty) 0 else nodes.map(_._3.length).max
    val lo = Array.tabulate(dims)(d => nodes.map(_._3(d)).min)
    val range = Array.tabulate(dims)(d => math.max(nodes.map(_._3(d)).max - lo(d), 1e-12))
    val num = nodes.map(r => Array.tabulate(dims)(d => (r._3(d) - lo(d)) / range(d))).toArray
    new Mirror(ids, adj, nodes.map(_._2).toArray, num)
  }

  /** Collect a (small) distributed graph. */
  def collect(g: AttributedGraph): Mirror = {
    val nodes = g.nodes.select("id", "text", "num").collect().toSeq.map { r =>
      (r.getLong(0),
        Option(r.getSeq[String](1)).map(_.toSet).getOrElse(Set.empty[String]),
        Option(r.getSeq[Double](2)).map(_.toArray).getOrElse(Array.empty[Double]))
    }
    val edges = g.edges.select(col("src"), col("dst")).collect().toSeq
      .map(r => (r.getLong(0), r.getLong(1)))
    apply(nodes, edges)
  }
}

/** Cohesiveness a method promises: connected k-core or connected k-truss. */
sealed trait Cohesion { def k: Int }
final case class KCore(k: Int) extends Cohesion
final case class KTruss(k: Int) extends Cohesion

/** Output checker: the reasons a returned community is wrong, empty when it
  * is right. Every request of the benchmark goes through [[check]].
  */
object Checker {

  val DeltaTolerance = 1e-9

  /** δ(H): mean distance to q over the members other than q. */
  def delta(m: Mirror, h: Set[Long], q: Long, gamma: Double): Double = {
    val others = h.toSeq.filter(_ != q).map(m.index)
    if (others.isEmpty) 0.0 else others.map(m.distance(_, m.index(q), gamma)).sum / others.size
  }

  /** Problems with `h` as an answer for `q`. `reportedDelta` is the δ the
    * method returned; `reference` is the δ of an uncapped exact answer for
    * the same q under the same cohesion, which no valid answer may beat.
    */
  def check(
      m: Mirror,
      q: Long,
      h: Set[Long],
      cohesion: Cohesion,
      gamma: Double,
      reportedDelta: Double,
      reference: Option[Double] = None,
  ): Seq[String] = {
    if (h.isEmpty) return Seq("empty community")
    val unknown = h.filterNot(m.index.contains)
    if (unknown.nonEmpty) return Seq(s"ids not in the graph: ${unknown.take(5).mkString(",")}")
    if (!h(q)) return Seq(s"query $q not in the community")
    val members = h.map(m.index)
    val problems = mutable.ArrayBuffer.empty[String]
    if (!connected(members, i => m.adj(i) & members)) problems += "community is not connected"
    cohesion match {
      case KCore(k) =>
        members.find(i => (m.adj(i) & members).size < k).foreach { i =>
          problems += s"node ${m.ids(i)} has ${(m.adj(i) & members).size} < $k neighbours in H"
        }
      case KTruss(k) =>
        // H is a connected k-truss when the edges of G[H] that lie in at
        // least k−2 triangles (peeled to a fixpoint) still connect all of H.
        val (weak, edges) = trussEdges(m, members, k)
        if (!connected(members, edges))
          problems += "k-truss edges do not connect H" + weak.headOption.fold("") {
            case (a, b, s) => s"; edge (${m.ids(a)},${m.ids(b)}) lies in $s < ${k - 2} triangles in H"
          }
    }
    val d = delta(m, h, q, gamma)
    if (!(math.abs(d - reportedDelta) <= DeltaTolerance))
      problems += s"reported delta $reportedDelta != recomputed $d"
    reference.foreach { ref =>
      if (d < ref - DeltaTolerance) problems += s"delta $d beats the uncapped exact delta $ref"
    }
    problems.toSeq
  }

  /** Edges of the k-truss of `G[members]` (each in ≥ k−2 triangles among
    * the surviving edges) and the edges peeled to reach it, each with the
    * triangle count that failed.
    */
  private def trussEdges(m: Mirror, members: Set[Int], k: Int)
      : (Seq[(Int, Int, Int)], Map[Int, Set[Int]]) = {
    val nbr = mutable.Map(members.toSeq.map(i => i -> (m.adj(i) & members)): _*)
    val weak = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    var changed = true
    while (changed) {
      changed = false
      for (a <- members.toSeq.sorted; b <- nbr(a).toSeq.sorted if a < b && nbr(a)(b)) {
        val s = (nbr(a) & nbr(b)).size
        if (s < k - 2) {
          weak += ((a, b, s)); nbr(a) -= b; nbr(b) -= a; changed = true
        }
      }
    }
    (weak.toSeq, nbr.toMap)
  }

  /** Whether `members` is connected over the edges `nbr` gives. */
  private def connected(members: Set[Int], nbr: Int => Set[Int]): Boolean = {
    val seen = mutable.Set(members.head)
    val stack = mutable.Stack(members.head)
    while (stack.nonEmpty) nbr(stack.pop()).foreach(v => if (seen.add(v)) stack.push(v))
    seen.size == members.size
  }

  /** Nodes that some connected k-core / k-truss of the whole graph contains:
    * the queries a method must answer with a community.
    */
  def answerable(m: Mirror, cohesion: Cohesion): Set[Long] = {
    val all = (0 until m.n).toSet
    val alive = cohesion match {
      case KCore(k) =>
        val deg = mutable.Map(all.toSeq.map(i => i -> m.adj(i).size): _*)
        val left = mutable.Set.from(all)
        val queue = mutable.Queue.from(all.filter(deg(_) < k))
        while (queue.nonEmpty) {
          val u = queue.dequeue()
          if (left.remove(u)) m.adj(u).foreach { v =>
            if (left(v)) { deg(v) -= 1; if (deg(v) < k) queue += v }
          }
        }
        left.toSet
      case KTruss(k) => trussEdges(m, all, k)._2.collect { case (i, ns) if ns.nonEmpty => i }.toSet
    }
    alive.map(m.ids)
  }
}
