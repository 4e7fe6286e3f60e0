package repro.graph

import org.apache.spark.{Partitioner, TaskContext}
import org.apache.spark.rdd.RDD
import scala.collection.mutable
import scala.reflect.ClassTag
import repro.graph.PriorityBfs.{Node, NodeStore}

/** The connected components of the graph that survives a cohesion model's
  * peel of G, labelled once per graph and model, so that q's maximal
  * connected k-core or k-truss (§IV-A) is one fetch rather than a walk per
  * query (ACQ answers it from its per-graph CL-tree in the same way).
  *
  * `blocks` holds the components, one cached array per partition of G's
  * node store `store`, each component keyed by its label, the least node id
  * in it. `exchanges` is the number of rounds in which the build's
  * partitions exchanged messages, none on a store of one partition;
  * `buildMs` is the time the build took, the store's build excluded.
  */
final class PeelIndex private (blocks: RDD[Array[(Long, PeelIndex.Component)]], store: NodeStore,
                               val exchanges: Int, val buildMs: Double) {

  /** Every component, keyed by its label. */
  def components: RDD[(Long, PeelIndex.Component)] = blocks.flatMap(_.iterator)

  /** The component that contains `q`; None when `q` keeps no edge in the
    * peeled graph. Throws `IllegalArgumentException` when `q` is not in G,
    * which the same tasks read from the node store. One Spark job.
    */
  def componentOf(q: Long): Option[PeelIndex.Component] = {
    val found = blocks.zipPartitions(store.nodes) { (bs, maps) =>
      Iterator((bs.flatMap(_.iterator.map(_._2).filter(_.contains(q))).toArray, maps.exists(_.contains(q))))
    }.collect()
    require(found.exists(_._2), s"query node $q not in graph")
    found.flatMap(_._1).headOption
  }
}

object PeelIndex {

  /** One component: its node ids in ascending order and their
    * [[PriorityBfs.Node]]s, attributes normalized by the whole graph's stats
    * and neighbours over the peeled edges.
    */
  final case class Component(ids: Array[Long], nodes: Array[Node]) {
    def contains(v: Long): Boolean = java.util.Arrays.binarySearch(ids, v) >= 0
  }

  /** What a partition carries from one round to the next: the edges
    * (`a < b`) known to be peeled, and the label each of its nodes last had.
    */
  private final case class Known(dead: Set[(Long, Long)], labels: Map[Long, Long])

  /** Builds the index inside the partitions of `store`, G's adjacency keyed
    * by node, graph-centric (Tian et al., "From Think Like a Vertex to Think
    * Like a Graph", PVLDB 2013): each partition runs the model's own [[Peel]]
    * cascade over its nodes to a local fixed point, with its neighbours in
    * other partitions pinned, and labels what survives by union-find. On
    * several partitions each first reads the neighbour lists of its cut
    * neighbours once (the halo, so that every triangle on one of its edges
    * is in view). The partitions then exchange by shuffle the edges they
    * peeled, until none peels another, and then the least labels of the
    * components that cross a cut, until none changes. A view holds every
    * edge G's peel keeps (and perhaps some another partition has peeled but
    * not yet told), so what a view peels G's peel peels too; once no view
    * peels another edge, each agrees with G's peel.
    *
    * Spark jobs: one per exchange round and one that builds the components,
    * so one in all on a store of one partition.
    */
  private[graph] def build(store: NodeStore, model: CohesionModel): PeelIndex = {
    val t0 = System.nanoTime()
    val maps = store.nodes
    val part = maps.partitioner.get
    // One partition has no cut edge: no halo, nothing to exchange and no
    // component to gather from elsewhere.
    val several = maps.getNumPartitions > 1
    // Each node's neighbour list, to every other partition that holds a
    // neighbour of it. Keyed by partition index, which `part` maps to itself.
    val halo = if (!several) maps.map(_ => mutable.LongMap.empty[Array[Long]]) else maps
      .flatMap(_.iterator.flatMap { case (v, n) =>
        val home = part.getPartition(v)
        n.dst.iterator.map(part.getPartition).filter(_ != home).distinct.map((_, (v, n.dst)))
      })
      .partitionBy(part)
      .mapPartitions(it => Iterator(mutable.LongMap.from(it.map(_._2))), preservesPartitioning = true)
      .persist()

    var known = maps.map(_ => Known(Set.empty, Map.empty))
    var inbox = maps.sparkContext.emptyRDD[(Int, (Long, Long))]
    /** `f` over each partition's view, what it knew and what it knows with
      * its inbox: labels when `labelling`, else peeled edges.
      */
    def inViews[A: ClassTag](labelling: Boolean)(f: (View, Known, Known) => Iterator[A]): RDD[A] =
      maps.zipPartitions(halo, known, inbox.partitionBy(part)) { (l, h, k, in) =>
        val was = k.next()
        val got = in.map(_._2)
        val now =
          if (labelling) was.copy(labels = got.foldLeft(was.labels) { case (ls, (v, l)) =>
            ls.updated(v, math.min(l, ls.getOrElse(v, l)))
          })
          else was.copy(dead = was.dead ++ got)
        f(new View(l.next(), h.next(), now.dead, model, part), was, now)
      }

    var exchanges = 0
    if (several) Seq(false, true).foreach { labelling =>
      var sent = 1L
      while (sent > 0) {
        val round = inViews(labelling) { (view, was, now) =>
          Iterator(if (labelling) view.relabel(was, now) else view.repeel(now))
        }
        round.localCheckpoint()
        sent = round.map(_._2.length.toLong).reduce(_ + _)
        known = round.map(_._1)
        inbox = round.flatMap(_._2)
        exchanges += 1
      }
    }

    val records = inViews(labelling = true)((view, _, now) => view.records(now.labels))
    val blocks = (if (several) records.partitionBy(part) else records).mapPartitions(it =>
      Iterator(it.toArray.groupBy(_._1).iterator.map { case (l, members) =>
        val ms = members.map(_._2).sortBy(_._1)
        (l, Component(ms.map(_._1), ms.map(_._2)))
      }.toArray))
    blocks.localCheckpoint()
    blocks.count()
    halo.unpersist()
    new PeelIndex(blocks, store, exchanges, (System.nanoTime() - t0) / 1e6)
  }

  /** One partition's view in one round: its own nodes, then their neighbours
    * in other partitions (pinned), over G's edges among these nodes (the
    * halo's included) less the `dead` ones, peeled by `model`.
    */
  private final class View(local: mutable.LongMap[Node], halo: mutable.LongMap[Array[Long]],
                           dead: Set[(Long, Long)], model: CohesionModel, part: Partitioner) {
    private val own = local.size
    private val lg = {
      val ids = local.keys.toArray.sorted ++ halo.keys.toArray.sorted
      val at = mutable.LongMap.from(ids.iterator.zipWithIndex)
      val lists = local.iterator.map { case (v, n) => (v, n.dst) } ++ halo.iterator
      // Each edge once, from its lesser end.
      val pairs = for ((v, dst) <- lists; w <- dst.iterator if v < w && at.contains(w) && !dead((v, w)))
        yield (at(v), at(w))
      new LocalGraph(ids, pairs.toArray, Array.fill(ids.length)(Set.empty),
        Array.fill(ids.length)(Array.emptyDoubleArray))
    }
    private val peel = model.peelAll(lg, own)
    private def id(u: Int): Long = lg.ids(u)

    // Union-find over the kept edges of own nodes; `root(u) == -1` for a node
    // that keeps no edge.
    private val root = {
      val up = Array.range(0, lg.n)
      def find(x: Int): Int = { var v = x; while (up(v) != v) { up(v) = up(up(v)); v = up(v) }; v }
      val kept = new Array[Boolean](lg.n)
      for (u <- 0 until own; j <- lg.adj(u).indices if peel.keeps(u, j)) {
        val w = lg.adj(u)(j)
        kept(u) = true; kept(w) = true
        up(find(u)) = find(w)
      }
      Array.tabulate(lg.n)(u => if (kept(u)) find(u) else -1)
    }

    /** This round's peel's removals, each sent to every other partition whose
      * view holds it (its ends' and its triangles' third nodes'): the next
      * state and the messages.
      */
    def repeel(now: Known): (Known, Array[(Int, (Long, Long))]) = {
      val lost = (for (u <- 0 until own; j <- lg.adj(u).indices if !peel.keeps(u, j); w = lg.adj(u)(j))
        yield (u, w, (id(u) min id(w), id(u) max id(w)))).distinctBy(_._3)
      val out = lost.flatMap { case (u, w, e) =>
        (Seq(u, w) ++ lg.adj(u).intersect(lg.adj(w))).map(x => part.getPartition(id(x))).distinct
          .filter(_ != TaskContext.getPartitionId()).map((_, e))
      }
      (now.copy(dead = now.dead ++ lost.map(_._3)), out.toArray)
    }

    /** Each set's label: the least id in it, or a lesser label one of its own
      * nodes has had; by root.
      */
    private def labels(had: Map[Long, Long]): mutable.LongMap[Long] = {
      val least = mutable.LongMap.empty[Long]
      for (u <- 0 until lg.n if root(u) >= 0) {
        val l = if (u < own) math.min(id(u), had.getOrElse(id(u), id(u))) else id(u)
        least(root(u)) = math.min(l, least.getOrElse(root(u), l))
      }
      least
    }

    /** The labels of own nodes, and for each set whose label is new to one of
      * its own nodes, the label to each of its nodes in another partition.
      */
    def relabel(was: Known, now: Known): (Known, Array[(Int, (Long, Long))]) = {
      val least = labels(now.labels)
      val changed = (0 until own).filter(u => root(u) >= 0 && !was.labels.get(id(u)).contains(least(root(u))))
        .map(root).toSet
      val out = (own until lg.n).filter(w => changed(root(w)))
        .map(w => (part.getPartition(id(w)), (id(w), least(root(w)))))
      val had = (0 until own).filter(root(_) >= 0).map(u => id(u) -> least(root(u))).toMap
      (now.copy(labels = had), out.toArray)
    }

    /** `(label, (v, node))` for each own node `v` that keeps an edge, its
      * neighbours cut down to the kept edges.
      */
    def records(had: Map[Long, Long]): Iterator[(Long, (Long, Node))] = {
      val least = labels(had)
      Iterator.range(0, own).filter(root(_) >= 0).map { u =>
        val dst = lg.adj(u).indices.filter(peel.keeps(u, _)).map(j => id(lg.adj(u)(j))).toArray
        (least(root(u)), (id(u), local(id(u)).copy(dst = dst)))
      }
    }
  }
}
