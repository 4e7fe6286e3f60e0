package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import repro.TestGraphs

class FromScratchSpec extends AnyFunSuite {

  test("componentOf: BFS component of q") {
    val lg = TestGraphs.local(6, Seq((0, 1), (1, 2), (3, 4)))
    assert(FromScratch.componentOf(lg, 0, lg.allAlive) === mutable.BitSet(0, 1, 2))
    assert(FromScratch.componentOf(lg, 3, lg.allAlive) === mutable.BitSet(3, 4))
    assert(FromScratch.componentOf(lg, 5, lg.allAlive) === mutable.BitSet(5))
  }

  test("componentOf: empty when q is not alive") {
    val lg = TestGraphs.local(3, Seq((0, 1)))
    assert(FromScratch.componentOf(lg, 0, mutable.BitSet(1, 2)).isEmpty)
  }

  test("componentOf: respects the alive mask as a cut") {
    val lg = TestGraphs.local(4, Seq((0, 1), (1, 2), (2, 3)))
    assert(FromScratch.componentOf(lg, 0, mutable.BitSet(0, 1, 3)) === mutable.BitSet(0, 1))
  }
}
