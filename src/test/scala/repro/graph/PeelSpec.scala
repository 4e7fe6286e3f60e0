package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random
import repro.TestGraphs

class PeelSpec extends AnyFunSuite {

  private val models = Seq(CoreModel(2), CoreModel(3), TrussModel(3), TrussModel(4))

  // Half the deletions are bounded by f of a random node of the structure:
  // deleteUpTo must finish exactly when the unbounded delete removes no node
  // above the bound. A stopped call is undone and followed by a plain delete
  // of another random node, which a stale entry in the cascade's queue would
  // corrupt.
  test("random delete/undo sequences equal the from-scratch structure after every step") {
    models.foreach { model =>
      val oracle = FromScratch.of(model)
      var empties = 0 // deletions that emptied the structure
      var finished = 0 // bounded deletions that finished
      var stopped = 0 // and that stopped
      (1 to 30).foreach { seed =>
        val rnd = new Random(seed)
        val lg = TestGraphs.randomLocal(10 + rnd.nextInt(20), 0.15 + 0.35 * rnd.nextDouble(), seed)
        val q = rnd.nextInt(lg.n)
        val f = Array.fill(lg.n)(rnd.nextDouble())
        // Every other run starts from a random subset, as SEA's sample does.
        val start =
          if (seed % 2 == 0) lg.allAlive
          else mutable.BitSet((0 until lg.n).filter(_ => rnd.nextDouble() < 0.8): _*)
        val peel = model.peel(lg, start, q)
        val base = peel.mark
        val initial = peel.alive.clone()
        assert(initial === oracle(lg, start, q), s"$model seed=$seed: initial")
        val history = mutable.Stack.empty[(Int, mutable.BitSet)] // mark and structure before a delete
        // Runs until 60 steps, or at once when the initial structure is empty.
        (1 to 60).takeWhile(_ => peel.alive.nonEmpty || history.nonEmpty).foreach { step =>
          val at = s"$model seed=$seed step=$step"
          if (peel.alive.nonEmpty && (history.isEmpty || rnd.nextDouble() < 0.7)) {
            val before = peel.alive.clone()
            val v = before.toSeq(rnd.nextInt(before.size)) // q included
            val mark = peel.mark
            val bounded = rnd.nextBoolean()
            val limit = f(before.toSeq(rnd.nextInt(before.size)))
            val after = oracle(lg, before.clone() -= v, q)
            if (!bounded) {
              peel.delete(v)
              assert(peel.alive === after, at)
            } else if (peel.deleteUpTo(v, f, limit)) {
              assert((before &~ after).forall(f(_) <= limit), s"$at: finished past a node above $limit")
              assert(peel.alive === after, at)
              finished += 1
            } else {
              assert((before &~ after).exists(f(_) > limit), s"$at: stopped, but no node is above $limit")
              stopped += 1
              peel.undo(mark)
              assert(peel.alive === before, s"$at: undo after a stop")
              val w = before.toSeq(rnd.nextInt(before.size))
              peel.delete(w)
              assert(peel.alive === oracle(lg, before.clone() -= w, q), s"$at: delete $w after a stop")
            }
            if (peel.alive.isEmpty) empties += 1
            history.push((mark, before))
          } else {
            val popped = (1 to 1 + rnd.nextInt(history.size)).map(_ => history.pop())
            val (mark, before) = popped.last
            peel.undo(mark)
            assert(peel.alive === before, at)
          }
        }
        peel.undo(base)
        assert(peel.alive === initial, s"$model seed=$seed: full undo")
      }
      assert(empties > 0, s"$model: no deletion emptied the structure")
      assert(finished > 0 && stopped > 0, s"$model: $finished bounded deletions finished, $stopped stopped")
    }
  }

  test("delete rejects a node outside the structure") {
    val lg = TestGraphs.local(6, Seq((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
    Seq(CoreModel(3), TrussModel(4)).foreach { model =>
      val peel = model.peel(lg, lg.allAlive, 0)
      assert(peel.alive === mutable.BitSet(0, 1, 2, 3), model)
      assertThrows[IllegalArgumentException](peel.delete(5))
    }
  }
}
