package repro.synthgraph

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.util.Random
import repro.graph.AttributedGraph

/** Synthetic attributed graphs with planted (ground-truth) communities —
  * the offline substitutes for the paper's ten real-world datasets
  * (DESIGN.md §3). Deterministic in the spec's seed.
  *
  * Inter-community edges are routed through designated low-degree *bridge*
  * nodes. Bridges keep the overall graph connected but are peeled away by a
  * k-core at the benchmarked k, so the maximal connected k-core around a
  * query stays community-sized — which is what makes per-query exact ground
  * truth computable at lite scale (the paper's server-scale runs spend hours
  * per dataset on exactly this enumeration, Table IV).
  *
  * Both generators lay out the same planted blocks. The specs keep only what
  * the datasets vary; the rest of the design is fixed by the constants below:
  * `CoreTags` tags per block plus `VarTags` of a `VarTagPool`-tag block pool,
  * numbers jittered by `NumSigma` around the block centre (`PeripherySigma`
  * in the periphery, the last `PeripheryFraction` of the non-bridges), and
  * at most 2 inter-block links per bridge. The homogeneous graph adds
  * `BridgeIntraEdges`, noise tags from a `NoiseTagPool` and `HomoNumDims`
  * numbers; the heterogeneous one has `HeteroBridges` bridges per block,
  * `TargetsPerHub` and `CrossHubs`.
  */
object SynthGraph {

  /** A generated graph plus its planted communities (node id → community).
    * For heterogeneous graphs only target nodes appear in `membership`.
    *
    * `circles` is the human-annotated-ground-truth analogue (§VII-A Remark):
    * the attribute-tight "inner circle" of each block. The remaining block
    * members are a numerically-deviant periphery — structurally embedded in
    * the k-core but attribute-wise dissimilar, the Fig. 1 "low-rating action
    * movies" that equality-matching methods wrongly include.
    */
  final case class Generated(
      graph: AttributedGraph,
      membership: Map[Long, Int],
      circles: Set[Long] = Set.empty,
  ) {
    def communityOf(id: Long): Set[Long] = {
      val c = membership(id)
      membership.collect { case (n, cc) if cc == c => n }.toSet
    }

    /** The annotated (HA-GT) community of `id`'s block. */
    def groundTruthOf(id: Long): Set[Long] = communityOf(id).intersect(circles)
  }

  private val CoreTags = 5
  private val VarTagPool = 4
  private val VarTags = 2
  private val NumSigma = 0.05
  private val PeripheryFraction = 0.45
  private val PeripherySigma = 0.30
  private val BridgeIntraEdges = 2
  private val NoiseTagPool = 25
  private val HomoNumDims = 3
  private val HeteroBridges = 3
  private val TargetsPerHub = 3
  private val CrossHubs = 12

  /** `count` planted blocks of `size` consecutive ids. The first `bridges`
    * ids of a block are its bridges; the last `PeripheryFraction` of its
    * non-bridges carry the block's tags but numerically deviant attributes,
    * so only attribute metrics that see numerical distance can exclude them.
    * Draws the block centres from `rnd` when built.
    */
  private final class Blocks(rnd: Random, count: Int, size: Int, bridges: Int, numDims: Int) {
    require(bridges < size, "bridges must be a strict subset of a community")
    val n: Int = count * size
    private val centres = Array.fill(count, numDims)(rnd.nextDouble())
    private val peripheryCount = {
      val nonBridge = size - bridges
      math.min(nonBridge - 1, math.ceil(PeripheryFraction * nonBridge).toInt)
    }

    def block(id: Int): Int = id / size
    def isBridge(id: Int): Boolean = id % size < bridges
    def isPeriphery(id: Int): Boolean = !isBridge(id) && id % size >= size - peripheryCount
    def randomNonBridge(c: Int): Int = c * size + bridges + rnd.nextInt(size - bridges)

    /** `id`'s sorted tags (none without `text`) and its numbers: Gaussian
      * jitter around its block's centre, clamped to [0,1]. `noise` is the
      * chance of one global noise tag.
      */
    def attributes(id: Int, text: Boolean, noise: Option[Double]): (Seq[String], Seq[Double]) = {
      val c = block(id)
      val tags =
        if (!text) Seq.empty[String]
        else {
          val vary = rnd.shuffle((0 until VarTagPool).toList).take(VarTags)
          val extra = noise.filter(rnd.nextDouble() < _).map(_ => s"noise${rnd.nextInt(NoiseTagPool)}")
          ((0 until CoreTags).map(t => s"c${c}_core$t") ++ vary.map(t => s"c${c}_var$t") ++ extra).sorted
        }
      val sigma = if (isPeriphery(id)) PeripherySigma else NumSigma
      (tags, Seq.tabulate(numDims) { d =>
        math.min(1.0, math.max(0.0, centres(c)(d) + rnd.nextGaussian() * sigma))
      })
    }

    /** Links bridges of different blocks through `link`, at most 2 links per
      * bridge: first a ring over the blocks for global connectivity. Returns
      * one random link out of a given block (to a random bridge of another
      * block), true when the cap let it through. Needs 2 or more blocks.
      */
    def bridgeLinks(link: (Int, Int) => Unit): Int => Boolean = {
      val links = mutable.Map.empty[Int, Int].withDefaultValue(0)
      def capped(a: Int, b: Int): Boolean =
        a != b && links(a) < 2 && links(b) < 2 && { link(a, b); links(a) += 1; links(b) += 1; true }
      (0 until count).foreach(c => capped(c * size, ((c + 1) % count) * size + (1 % bridges)))
      c => {
        var o = rnd.nextInt(count)
        while (o == c) o = rnd.nextInt(count)
        capped(c * size + rnd.nextInt(bridges), o * size + rnd.nextInt(bridges))
      }
    }

    /** `g`, cached, with every id's block and the non-bridge,
      * non-periphery circles.
      */
    def generated(g: AttributedGraph): Generated = Generated(
      g.cached(),
      (0 until n).map(id => id.toLong -> block(id)).toMap,
      (0 until n).collect { case id if !isBridge(id) && !isPeriphery(id) => id.toLong }.toSet,
    )
  }

  /** Runs `attempt` until `want` attempts succeed or after `10 * want`. */
  private def attempts(want: Int)(attempt: => Boolean): Unit = {
    var made = 0
    var tries = 0
    while (made < want && tries < want * 10) {
      if (attempt) made += 1
      tries += 1
    }
  }

  /** Homogeneous planted-partition graph.
    *
    * Non-bridge nodes draw `intraDeg/2` partners among the non-bridge
    * members of their block; bridge nodes (the first `bridges` ids of each
    * block) draw `BridgeIntraEdges` block partners and `interDeg` partners
    * among bridges of other blocks. Textual attributes: the block's tags +
    * one global noise tag with chance `noiseTagProb`. Numerical attributes:
    * block centres with small Gaussian jitter — keeping the within-community
    * coefficient of variation of `f(·,q)` small, as the CI-based early
    * termination needs.
    */
  final case class HomoSpec(
      nCommunities: Int,
      communitySize: Int,
      intraDeg: Int,
      interDeg: Int,
      bridges: Int = 4,
      noiseTagProb: Double = 0.15,
      seed: Long = 7,
  )

  def homogeneous(spark: SparkSession, spec: HomoSpec): Generated = {
    import spec._
    val rnd = new Random(seed)
    val blocks = new Blocks(rnd, nCommunities, communitySize, bridges, HomoNumDims)
    val nodeRows = (0 until blocks.n).map { id =>
      val (tags, num) = blocks.attributes(id, text = true, Some(noiseTagProb))
      (id.toLong, tags, num)
    }

    val edges = mutable.Set.empty[(Long, Long)]
    def addEdge(a: Int, b: Int): Unit =
      if (a != b) edges += ((math.min(a, b).toLong, math.max(a, b).toLong))

    (0 until blocks.n).foreach { id =>
      val c = blocks.block(id)
      if (!blocks.isBridge(id)) {
        var added = 0
        var tries = 0
        while (added < intraDeg / 2 && tries < intraDeg * 6) {
          val other = blocks.randomNonBridge(c)
          if (other != id) { addEdge(id, other); added += 1 }
          tries += 1
        }
      } else {
        (0 until BridgeIntraEdges).foreach(_ => addEdge(id, blocks.randomNonBridge(c)))
      }
    }

    // Inter-community edges live only between bridges, at most 2 per bridge,
    // so a bridge's total degree stays <= BridgeIntraEdges + 2 and it is
    // guaranteed to peel out of any k-core with k > BridgeIntraEdges + 2.
    if (nCommunities > 1) {
      val linkFrom = blocks.bridgeLinks(addEdge)
      (0 until nCommunities).foreach(c => attempts(interDeg)(linkFrom(c)))
    }

    blocks.generated(AttributedGraph.homogeneous(spark, nodeRows, edges.toSeq))
  }

  /** Heterogeneous graph in the DBLP mould: `targetType` nodes (with
    * attributes, planted into communities), `hubType` nodes (papers) each
    * linking `TargetsPerHub` non-bridge targets of one community, plus
    * `CrossHubs` hubs that link bridge targets of two random communities
    * (the inter-community structure), plus `decoTypes` decorative node types
    * hanging off the hubs (venues, topics, …) so `#N-types`/`#E-types` vary
    * per dataset as in Table I. `hasText = false` yields numerical-only
    * attributes (DBpedia/Freebase/YAGO in the paper, where equality-matching
    * methods return nothing). Target meta-path: `target-hub-target`.
    */
  final case class HeteroSpec(
      targetType: String,
      hubType: String,
      nCommunities: Int,
      communitySize: Int,
      hubsPerCommunity: Int,
      decoTypes: Seq[(String, Int)] = Seq.empty, // (type name, node count)
      hasText: Boolean = true,
      numDims: Int = 3,
      seed: Long = 11,
  ) {
    def metaPath: Seq[String] = Seq(targetType, hubType, targetType)
  }

  def heterogeneous(spark: SparkSession, spec: HeteroSpec): Generated = {
    import spec._
    val rnd = new Random(seed)
    val blocks = new Blocks(rnd, nCommunities, communitySize, HeteroBridges, numDims)
    // Node ids are row positions: targets first, then hubs, then decorations.
    val nodeRows = mutable.ArrayBuffer.empty[(Long, String, Seq[String], Seq[Double])]
    (0 until blocks.n).foreach { id =>
      val (tags, num) = blocks.attributes(id, hasText, noise = None)
      nodeRows += ((id.toLong, targetType, tags, num))
    }
    val edgeRows = mutable.ArrayBuffer.empty[(Long, Long, String)]

    def hub(targets: Int*): Unit = {
      val hub = nodeRows.length.toLong
      nodeRows += ((hub, hubType, Seq.empty, Seq.empty))
      targets.foreach(t => edgeRows += ((t.toLong, hub, s"$targetType$hubType")))
    }

    // Intra-community hubs over non-bridge targets.
    (0 until nCommunities).foreach { c =>
      (0 until hubsPerCommunity).foreach { _ =>
        val members = mutable.Set.empty[Int]
        while (members.size < TargetsPerHub) members += blocks.randomNonBridge(c)
        hub(members.toSeq: _*)
      }
      // Each bridge joins one small intra hub so it stays attached.
      (0 until HeteroBridges).foreach(b => hub(c * communitySize + b, blocks.randomNonBridge(c)))
    }
    // Cross hubs: bridges of two random communities co-occur. Each bridge
    // joins at most 2 cross hubs, so its projected degree stays <= 3 and it
    // peels out of any (k,P)-core with k >= 4 — mirroring the homogeneous
    // bridge construction.
    if (nCommunities > 1) {
      val linkFrom = blocks.bridgeLinks(hub(_, _))
      attempts(CrossHubs)(linkFrom(rnd.nextInt(nCommunities)))
    }

    // Decorative types: each deco node links to a few random hubs.
    val hubs = nodeRows.length - blocks.n
    decoTypes.foreach { case (t, count) =>
      (0 until count).foreach { _ =>
        val id = nodeRows.length.toLong
        nodeRows += ((id, t, Seq.empty, Seq.empty))
        (0 to rnd.nextInt(3)).foreach { _ =>
          edgeRows += ((blocks.n + rnd.nextInt(hubs).toLong, id, s"$hubType$t"))
        }
      }
    }

    blocks.generated(AttributedGraph.fromLocal(spark, nodeRows.toSeq, edgeRows.toSeq))
  }
}
